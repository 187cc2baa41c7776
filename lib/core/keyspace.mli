(** The discrete query-attribute space the AP²G-tree is built over.

    The space is a [dims]-dimensional hypercube of side [2^depth]; a record
    key is a point in it. A full AP²G-tree halves every dimension at each
    level, so a tree node is identified by its level and cell coordinates and
    every leaf is a unit cell. The tree shape is therefore a pure function of
    the keyspace — never of the data — which is the property that keeps the
    index structure leak-free (Section 6.1). *)

type t

val create : dims:int -> depth:int -> t
(** @raise Invalid_argument if [dims < 1], [depth < 0], [depth >= 32] (the
    side [2^depth] must fit the codecs' u32 coordinates), or the total leaf
    count overflows. *)

val dims : t -> int
val depth : t -> int
val side : t -> int
(** Points per dimension, [2^depth]. *)

val num_leaves : t -> int
val whole : t -> Box.t
val valid_key : t -> int array -> bool

val children_boxes : t -> Box.t -> Box.t list
(** The [2^dims] sub-cells of a grid cell (in deterministic order). A unit
    cell has no children. @raise Invalid_argument if the box is not a grid
    cell of this space. *)

val is_unit : Box.t -> bool
val key_of_unit : Box.t -> int array
