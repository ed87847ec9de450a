(** Antichains of a DFG (paper §3 and §5.1).

    An antichain is a set of pairwise parallelizable nodes — nodes none of
    which follows another.  An antichain of size ≤ C ({e executable}) can in
    principle occupy one clock cycle of a C-ALU machine; its {e pattern} is
    the bag of its nodes' colors; its {e span} measures how far apart in
    schedule levels its members sit, and Theorem 1 turns the span into a
    lower bound on any schedule that runs the antichain in one cycle. *)

type t
(** A validated antichain: node ids, strictly increasing. *)

val of_nodes : Mps_dfg.Reachability.t -> int list -> t
(** @raise Invalid_argument if the nodes are not pairwise parallelizable or
    contain duplicates (the empty antichain is allowed). *)

val of_sorted_prefix : int array -> int -> t
(** [of_sorted_prefix nodes len] is the antichain of [nodes.(0 .. len-1)],
    trusting the caller that they are strictly increasing and pairwise
    parallelizable — the enumerator's chosen-node stack is both by
    construction. *)

val nodes : t -> int list
val size : t -> int
val mem : t -> int -> bool

val is_executable : capacity:int -> t -> bool
(** size ≤ C (§3). *)

val pattern : Mps_dfg.Dfg.t -> t -> Mps_pattern.Pattern.t

val span : Mps_dfg.Levels.t -> t -> int
(** Span(A) = U(max ASAP − min ALAP) (§5.1); 0 for the empty antichain. *)

val span_bound : Mps_dfg.Levels.t -> t -> int
(** Theorem 1: scheduling all of [t] in one cycle forces the whole schedule
    to at least [ASAPmax + Span + 1] cycles. *)

val compare : t -> t -> int
val equal : t -> t -> bool

val pp : Mps_dfg.Dfg.t -> Format.formatter -> t -> unit
(** [{b1,a4,b3}] — node names in id order. *)
