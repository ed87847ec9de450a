(** Dense, fixed-universe bitsets.

    The antichain enumerator (paper §5.1) walks millions of candidate node
    sets; it represents "the set of nodes parallelizable with everything
    chosen so far" as a bitset over node ids and refines it by intersection.
    This module is the imperative kernel behind that walk: sets over the
    universe [0 .. universe-1] packed into an int array, with O(words)
    bulk operations. *)

type t

val create : int -> t
(** [create universe] is the empty set over [0 .. universe-1].
    @raise Invalid_argument if [universe < 0]. *)

val universe : t -> int
(** Size of the universe the set was created over. *)

val full : int -> t
(** [full universe] contains every element of the universe. *)

val copy : t -> t
val clear : t -> unit

val add : t -> int -> unit
val remove : t -> int -> unit
val mem : t -> int -> bool

(** Out-of-range elements raise [Invalid_argument] in the three functions
    above. *)

val cardinal : t -> int

val is_empty : t -> bool

val equal : t -> t -> bool

val inter_into : dst:t -> t -> unit
(** [inter_into ~dst src] replaces [dst] with [dst ∩ src].
    @raise Invalid_argument on universe mismatch (as for all binary ops). *)

val inter_of : dst:t -> t -> t -> unit
(** [inter_of ~dst a b] overwrites [dst] with [a ∩ b], allocating nothing:
    the antichain walk fills one preallocated level of its candidate stack
    this way per extension.  [dst] may be [a] or [b]. *)

val union_into : dst:t -> t -> unit
val diff_into : dst:t -> t -> unit

val inter : t -> t -> t
val union : t -> t -> t
val diff : t -> t -> t

val subset : t -> t -> bool

val iter : (int -> unit) -> t -> unit
(** Iterates elements in increasing order. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val elements : t -> int list

val next_from : t -> int -> int
(** [next_from t i] is the smallest member ≥ [i], or [-1] if there is none.
    Allocates nothing and skips empty words whole: the enumerator walks its
    candidates in increasing order with it. *)

val first_from : t -> int -> int option
(** [first_from t i] is {!next_from} as an option: [None] for [-1]. *)

val of_list : int -> int list -> t
(** [of_list universe elems]. *)

val pp : Format.formatter -> t -> unit
