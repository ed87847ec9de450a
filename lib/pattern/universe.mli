(** An interning arena for patterns: the pattern universe.

    Every hot phase of the flow — antichain classification (§5.1), pattern
    selection (§5.2), multi-pattern scheduling (§4) — keeps asking the same
    questions about the same small set of distinct patterns: what is its
    canonical spelling, its size, its color set, and above all whether one
    pattern is a subpattern of another.  A universe answers those questions
    once.  Each distinct pattern is mapped to a dense integer id
    ({!Pattern.Id.t}); per-id size, color set and spelling are memoized at
    interning time; and the subpattern partial order over the interned
    patterns is materialized as a packed bit dominance matrix, so a
    subpattern test is one array index plus one bit probe instead of a
    multiset walk.

    The matrix is built lazily and incrementally: interning never pays for
    it, the first dominance query after new ids appeared extends it.  A
    scratch universe that is only ever interned into (e.g. a per-domain
    partial during parallel classification) therefore never builds a matrix
    at all.

    Ids are allocated densely in first-interning order, which makes them
    deterministic for any deterministic visit order — and {!merge} folds a
    second universe in {e its} id order, so per-domain universes merged in
    submission order yield the same master ids as the sequential walk.

    A universe is a mutable arena, not a thread-safe object: interning and
    querying must happen from one domain at a time.  Parallel phases give
    each domain its own scratch universe and {!merge} them afterwards. *)

type t

val create : ?expected:int -> unit -> t
(** A fresh, empty universe.  [expected] pre-sizes the arena (default 64);
    it is a hint, not a bound. *)

val cardinal : t -> int
(** Number of distinct patterns interned so far.  Ids [0 .. cardinal-1] are
    live. *)

val copy : t -> t
(** An independent universe with the same ids, patterns, memoized facts and
    dominance matrix.  Interning into or querying the copy never touches
    the original: this is how one arena is handed to several domains at
    once, one copy each. *)

val intern : t -> Pattern.t -> Pattern.Id.t
(** The id of the pattern, allocating the next dense id on first sight.
    Injective: two patterns receive the same id iff they are [Pattern.equal]. *)

val find : t -> Pattern.t -> Pattern.Id.t option
(** The id of an already-interned pattern, without allocating. *)

val pattern : t -> Pattern.Id.t -> Pattern.t
(** The pattern of an id: the round-trip inverse of {!intern}. *)

val size : t -> Pattern.Id.t -> int
(** Memoized [Pattern.size]. *)

val color_set : t -> Pattern.Id.t -> Mps_dfg.Color.Set.t
(** Memoized [Pattern.color_set]. *)

val to_string : t -> Pattern.Id.t -> string
(** Memoized canonical spelling ([Pattern.to_string]). *)

val padded_string : t -> capacity:int -> Pattern.Id.t -> string
(** The memoized spelling padded with '-' dummies up to [capacity].
    @raise Invalid_argument if the pattern exceeds the capacity. *)

val subpattern : t -> Pattern.Id.t -> of_:Pattern.Id.t -> bool
(** [subpattern u q ~of_:p] iff [Pattern.subpattern (pattern u q)
    ~of_:(pattern u p)] — answered from the dominance matrix in O(1) after
    the (amortized) lazy matrix extension. *)

val proper_subpattern : t -> Pattern.Id.t -> of_:Pattern.Id.t -> bool
(** Strict version; because interning is injective this is the matrix test
    plus an id comparison. *)

val merge : into:t -> t -> Pattern.Id.t array
(** [merge ~into other] interns every pattern of [other] into [into], in
    [other]'s id order, and returns the translation table: slot [i] holds
    the id in [into] of [other]'s id [i].  [other] is not modified. *)

val iter : (Pattern.Id.t -> Pattern.t -> unit) -> t -> unit
(** Iterates live ids in increasing (= interning) order. *)

val fold : (Pattern.Id.t -> Pattern.t -> 'a -> 'a) -> t -> 'a -> 'a
(** [fold f u init] folds [f] over the live ids in increasing (= interning)
    order: the accumulator-threading counterpart of {!iter}. *)

val sorted_ids : t -> Pattern.Id.t array
(** All live ids ordered by [Pattern.compare] of their patterns — the
    canonical presentation order every text format uses.  Fresh array. *)

val pp : Format.formatter -> t -> unit
(** "id: spelling" lines in id order, for debugging. *)
