(** The AP²kd-tree split objective and Algorithm 7 (Appendix D).

    Given the access policies of records ordered along the splitting
    dimension, choose the split point minimizing
    [f(Υ_l, Υ_r) = |X_l ∩ X_r|], where [X] is the set of DNF clauses — i.e.
    make it as unlikely as possible that one user can see into both
    half-spaces, maximizing pruning. *)

val objective : Expr.t list -> Expr.t list -> int
(** [f] for the two half-space policy groups. *)

val split : Expr.t array -> int
(** Algorithm 7 verbatim: returns [x] meaning records [0..x-1] go left and
    [x..n-1] go right (1 <= x <= n-1). @raise Invalid_argument if fewer than
    2 policies. *)

val split_exhaustive : Expr.t array -> int
(** Brute-force argmin of {!objective}: the optimum the paper's
    linear-time recursion approximates (a test reference). *)
