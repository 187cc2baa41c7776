module B = Zkqac_bigint.Bigint

type matrix = B.t array array

let mul_vec_mat ~p v m ~cols =
  let out = Array.make cols B.zero in
  Array.iteri
    (fun i vi ->
      if not (B.is_zero vi) then
        Array.iteri
          (fun j mij -> out.(j) <- B.erem (B.add out.(j) (B.mul vi mij)) p)
          (Array.sub m.(i) 0 cols))
    v;
  out

(* Find v with v*M = target by Gaussian elimination on M^T | target^T:
   solving M^T x = target^T for x gives the row combination. *)
let solve_left ~p m target =
  let l = Array.length m in
  let t = Array.length target in
  if l = 0 then (if Array.for_all B.is_zero target then Some [||] else None)
  else begin
    (* Build augmented t x (l+1) system: rows are columns of m. *)
    let a = Array.init t (fun j -> Array.init (l + 1) (fun i -> if i < l then m.(i).(j) else target.(j))) in
    let inv x = B.invmod x p in
    let nrows = t and ncols = l in
    let pivot_col_of_row = Array.make nrows (-1) in
    let row = ref 0 in
    for col = 0 to ncols - 1 do
      if !row < nrows then begin
        (* Find pivot. *)
        let piv = ref (-1) in
        for r = !row to nrows - 1 do
          if !piv = -1 && not (B.is_zero a.(r).(col)) then piv := r
        done;
        if !piv >= 0 then begin
          let tmp = a.(!row) in
          a.(!row) <- a.(!piv);
          a.(!piv) <- tmp;
          let d = inv a.(!row).(col) in
          for j = 0 to ncols do
            a.(!row).(j) <- B.erem (B.mul a.(!row).(j) d) p
          done;
          for r = 0 to nrows - 1 do
            if r <> !row && not (B.is_zero a.(r).(col)) then begin
              let f = a.(r).(col) in
              for j = 0 to ncols do
                a.(r).(j) <- B.erem (B.sub a.(r).(j) (B.mul f a.(!row).(j))) p
              done
            end
          done;
          pivot_col_of_row.(!row) <- col;
          incr row
        end
      end
    done;
    (* Consistency: rows with all-zero coefficients must have zero rhs. *)
    let consistent = ref true in
    for r = 0 to nrows - 1 do
      let allz = ref true in
      for j = 0 to ncols - 1 do
        if not (B.is_zero a.(r).(j)) then allz := false
      done;
      if !allz && not (B.is_zero a.(r).(ncols)) then consistent := false
    done;
    if not !consistent then None
    else begin
      let x = Array.make l B.zero in
      for r = 0 to nrows - 1 do
        if pivot_col_of_row.(r) >= 0 then x.(pivot_col_of_row.(r)) <- a.(r).(ncols)
      done;
      (* Double-check (cheap insurance against elimination bugs). *)
      let check = mul_vec_mat ~p x m ~cols:t in
      if Array.for_all2 B.equal check target then Some x else None
    end
  end

let spans_e1 ~p m ~cols =
  let target = Array.init cols (fun j -> if j = 0 then B.one else B.zero) in
  match solve_left ~p m target with Some _ -> true | None -> false
