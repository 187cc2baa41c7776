module Make (P : Zkqac_group.Pairing_intf.PAIRING) = struct
  module Ap2g = Ap2g.Make (P)
  module Vo = Vo.Make (P)

  type 'a verified = { value : 'a; over : int }

  let verified_records ?batch ~mvk ~tree_universe ?hierarchy ~user ~query vo =
    Ap2g.verify ?batch ~mvk ~t_universe:tree_universe ?hierarchy ~user ~query vo

  let fold ?batch ~mvk ~tree_universe ?hierarchy ~user ~query ~extract ~combine
      ~init vo =
    match verified_records ?batch ~mvk ~tree_universe ?hierarchy ~user ~query vo with
    | Error e -> Error e
    | Ok records ->
      let value =
        List.fold_left
          (fun acc r -> match extract r with Some v -> combine acc v | None -> acc)
          init records
      in
      Ok { value; over = List.length records }

  let count ?batch ~mvk ~tree_universe ?hierarchy ~user ~query vo =
    match verified_records ?batch ~mvk ~tree_universe ?hierarchy ~user ~query vo with
    | Error e -> Error e
    | Ok records ->
      let n = List.length records in
      Ok { value = n; over = n }

  let sum ?batch ~mvk ~tree_universe ?hierarchy ~user ~query ~extract vo =
    fold ?batch ~mvk ~tree_universe ?hierarchy ~user ~query ~extract
      ~combine:( +. ) ~init:0.0 vo
end
