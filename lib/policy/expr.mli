(** Monotone boolean access policies over attributes.

    Policies are the [Υ] of the paper: monotone formulas built from AND/OR
    gates over roles. Monotonicity is guaranteed structurally (there is no
    negation), matching the paper's restriction to monotone span programs. *)

type t =
  | Leaf of Attr.t
  | And of t list
  | Or of t list
  | Threshold of int * t list
      (** [Threshold (k, children)]: at least [k] of the children must be
          satisfied. AND is n-of-n, OR is 1-of-n; thresholds generalize both
          (k-of-n gates are standard in the ABE literature the paper builds
          on). Internally compiled to OR-of-AND combinations where a binary
          gate structure is required. *)

val leaf : Attr.t -> t
val conj : t list -> t
(** N-ary AND; flattens nested ANDs and simplifies singletons.
    @raise Invalid_argument on an empty list. *)

val disj : t list -> t
(** N-ary OR, with the same normalizations. *)

val of_attrs_or : Attr.t list -> t
(** The super-policy shape [a1 ∨ a2 ∨ ... ∨ an]. *)

val of_attrs_and : Attr.t list -> t

val threshold : int -> t list -> t
(** [threshold k children]. Normalizes the degenerate cases k=1 (OR) and
    k=n (AND). @raise Invalid_argument unless [1 <= k <= length children]. *)

val expand_thresholds : t -> t
(** Rewrite every threshold gate into an OR of AND-combinations (exponential
    in gate width; thresholds are expected to be narrow). The result contains
    only Leaf/And/Or. *)

val eval : t -> Attr.Set.t -> bool
(** [eval policy attrs] is [Υ(attrs)]. *)

val attrs : t -> Attr.Set.t
(** All attributes mentioned. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val num_leaves : t -> int
(** Policy length in the paper's sense (number of role occurrences). *)

val to_string : t -> string
(** Concrete syntax, e.g. ["(RoleA & RoleB) | RoleC"]. *)

val of_string : string -> t
(** Parses the syntax of {!to_string}: identifiers, [&], [|], parentheses;
    [&] binds tighter than [|]. @raise Invalid_argument on syntax errors or
    on nesting deeper than 64 levels, so a hostile policy string cannot
    exhaust the parser stack. *)

val pp : Format.formatter -> t -> unit

(** {1 Disjunctive normal form} *)

type dnf = Attr.Set.t list
(** OR of AND-clauses; each clause is the set of attributes that must all be
    held. This is the normalized policy form of Section 3. *)

val to_dnf : t -> dnf
(** Expansion to DNF with absorption (clauses that are supersets of other
    clauses are dropped). Worst-case exponential, as always. *)

val of_dnf : dnf -> t
val eval_dnf : dnf -> Attr.Set.t -> bool

val canonical : t -> t
(** DNF-based canonical form, usable as a dictionary key for policies. *)

(** {1 Random policy generation (experimental workloads)} *)

val random :
  Zkqac_rng.Prng.t ->
  roles:Attr.t array ->
  or_fanin:int ->
  and_fanin:int ->
  t
(** A random DNF-shaped policy: an OR of at most [or_fanin] clauses, each an
    AND of at most [and_fanin] distinct roles — the generator used throughout
    the paper's experiments (defaults there: 3 and 2). *)
