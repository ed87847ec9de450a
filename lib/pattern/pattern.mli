(** Patterns: bags of operation colors (paper §3).

    "In a system with a fixed number C of reconfigurable resources, C
    functions that can be run by the C reconfigurable resources in parallel
    are called a pattern.  A pattern is therefore a bag of C elements.  A
    pattern might have less than C colors; the undefined elements are
    represented by dummies."

    We represent a pattern by the multiset of its {e defined} colors only —
    dummies are implicit, so the pattern "aabcc" of a 5-ALU machine and the
    same bag on a 6-ALU machine are the same value; the capacity only
    matters when asking whether the pattern fits a machine
    ({!fits_capacity}).  [size] counts defined elements with multiplicity,
    matching the paper's |p̄| (e.g. |{aa}| = 2 in the §5.2 example). *)

type t
(** A multiset stored as a balanced map from color to multiplicity.  The
    map's internal tree shape depends on the order the colors were
    inserted in, so two equal bags built in different orders can differ
    under the polymorphic [=] and [compare]: test bags with {!equal} and
    {!compare}.  Code that stores patterns and is compared structurally
    (the classification's universe, say) must build each pattern the same
    way every time, e.g. always with {!of_antichain_colors} over nodes in
    increasing id order. *)

val empty : t

val of_colors : Mps_dfg.Color.t list -> t

val of_string : ?capacity:int -> string -> t
(** [of_string "aabcc"]: one color per character.  Dashes are skipped so
    dummy-padded spellings like "aab--" round-trip.  When [capacity] is
    given, a spelling with more defined colors than the machine has ALUs is
    rejected immediately — user-supplied patterns fail loudly at the parse
    boundary instead of silently surviving until a later [fits_capacity]
    check deep in selection.
    @raise Invalid_argument on characters [Color.of_char] rejects, or when
    the defined-color count exceeds [capacity]. *)

val to_string : t -> string
(** Canonical spelling: colors sorted, repeated per multiplicity,
    e.g. ["aabcc"]. *)

val to_padded_string : capacity:int -> t -> string
(** Canonical spelling padded with '-' dummies up to [capacity], e.g.
    ["aab--"].  @raise Invalid_argument if the pattern exceeds capacity. *)

val size : t -> int
(** |p̄|: number of defined elements, with multiplicity. *)

val count : t -> Mps_dfg.Color.t -> int
val mem : t -> Mps_dfg.Color.t -> bool

val colors : t -> Mps_dfg.Color.t list
(** Distinct colors, sorted. *)

val color_set : t -> Mps_dfg.Color.Set.t

val to_counted_list : t -> (Mps_dfg.Color.t * int) list

val add : t -> Mps_dfg.Color.t -> t
val remove : t -> Mps_dfg.Color.t -> t

val fits_capacity : capacity:int -> t -> bool
(** [size ≤ capacity]. *)

val subpattern : t -> of_:t -> bool
(** [subpattern p ~of_:q]: every color of [p] occurs in [q] at least as
    often.  "We can use the selected pattern at the place where a subpattern
    is needed" (§5.2) — reflexive, antisymmetric, transitive. *)

val proper_subpattern : t -> of_:t -> bool

val join : t -> t -> t
(** Pointwise max: the smallest pattern having both arguments as
    subpatterns. *)

val meet : t -> t -> t
(** Pointwise min. *)

val sum : t -> t -> t
(** Pointwise sum (concatenating resource requirements). *)

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int

val pp : Format.formatter -> t -> unit
(** Prints the canonical spelling in braces: [{aabcc}]. *)

val of_antichain_colors : Mps_dfg.Dfg.t -> int list -> t
(** The pattern of a node set: the bag of the nodes' colors (§5.1
    "the antichains are classified according to their patterns"). *)

val enumerate : colors:Mps_dfg.Color.t list -> max_size:int -> t list
(** Every pattern of size 1..[max_size] over the given colors (distinct
    colors assumed), in increasing (size, lexicographic) order.  There are
    C(k+s-1, s) patterns of size s over k colors — intended for small k. *)

val random : Mps_util.Rng.t -> colors:Mps_dfg.Color.t list -> size:int -> t
(** Uniformly random bag: each of the [size] slots draws a color uniformly
    and independently — the paper's "randomly generated patterns" baseline
    (§6).  @raise Invalid_argument if [colors] is empty or [size < 0]. *)

module Set : Set.S with type elt = t
module Map : Map.S with type key = t

(** Dense pattern identifiers handed out by {!Universe} interning arenas.
    Ids are internal bookkeeping: they never appear in any text format or
    CLI output, and are only meaningful relative to the universe that
    allocated them. *)
module Id : sig
  type t = private int

  val of_int : int -> t
  (** For arena implementations and tests.  @raise Invalid_argument on a
      negative id. *)

  val to_int : t -> int
  val compare : t -> t -> int
  val equal : t -> t -> bool
  val hash : t -> int
  val pp : Format.formatter -> t -> unit
end
