(** The pattern selection algorithm — the paper's contribution (§5.2, Fig. 7).

    Patterns are chosen one at a time.  The priority of a candidate pattern
    p̄j given the already-selected set Ps is (Eq. 8)

    f(p̄j) = Σ_n  h(p̄j,n) / (Σ_{p̄i∈Ps} h(p̄i,n) + ε)  +  α·|p̄j|²

    when p̄j satisfies the color-number condition (Eq. 9)

    |Ln(p̄j)| ≥ |L| − |Ls| − C·(Pdef − |Ps| − 1)

    and 0 otherwise.  The first addend prefers patterns with many antichains
    while damping nodes the earlier selections already cover; the α term
    prefers larger patterns; the color condition keeps enough room in the
    remaining picks that every color of the graph ends up covered.  When no
    candidate has nonzero priority, a pattern is fabricated from uncovered
    colors (Fig. 7, line 3).  After each selection the chosen pattern's
    subpatterns are deleted from the candidate pool (line 4).

    {!loop} is the one implementation of that loop.  Its score function
    is the only part a caller chooses, so the same loop also runs the
    {!Priority_variants} scores, the greedy-count ablation and the
    kernel-suite selection of {!Shared}. *)

type params = { epsilon : float; alpha : float }

val default_params : params
(** The paper's operating point: ε = 0.5, α = 20. *)

type step = {
  chosen : Mps_pattern.Pattern.t;
  priority : float;  (** f at selection time; meaningless for fallbacks. *)
  fallback : bool;  (** Fabricated from uncovered colors. *)
  deleted : Mps_pattern.Pattern.t list;
      (** Candidate subpatterns removed by this selection (the pattern
          itself included when it was a candidate). *)
  priorities : (Mps_pattern.Pattern.t * float) list;
      (** The full scored candidate list at this step, selection order —
          the numbers the paper walks through in §5.2. *)
}

type report = {
  patterns : Mps_pattern.Pattern.t list;  (** In selection order. *)
  steps : step list;
}

val balance : epsilon:float -> cover:int array -> int array -> float
(** Eq. 8's first addend, Σ_n h(p̄,n) / (cover(n) + ε) over the nodes
    with h > 0, summed in node order. *)

val eq8 : params -> cover:int array -> freq:int array -> size:int -> float
(** The priority f(p̄) of a candidate of size [size] with frequency
    vector [freq]: [balance] plus α·|p̄|², added in that order. *)

val eq9 :
  Mps_pattern.Universe.t ->
  colors:Mps_dfg.Color.Set.t ->
  capacity:int ->
  picks_left:int ->
  covered:Mps_dfg.Color.Set.t ->
  Mps_pattern.Pattern.Id.t ->
  bool
(** The color-number condition for a candidate, given the graph's
    [colors], the colors [covered] so far and the [picks_left] after this
    one.  Apply everything but the id once per step: the missing-color
    count is computed there, not per candidate. *)

val fabricate :
  Mps_pattern.Universe.t ->
  colors:Mps_dfg.Color.Set.t ->
  capacity:int ->
  covered:Mps_dfg.Color.Set.t ->
  Mps_pattern.Pattern.Id.t option
(** Fig. 7's fallback: the pattern of the first [capacity] uncovered
    colors, interned into the universe; [None] when every color is
    covered. *)

val loop :
  ?evidence:bool ->
  Mps_pattern.Universe.t ->
  colors:Mps_dfg.Color.Set.t ->
  capacity:int ->
  pdef:int ->
  score:(Mps_pattern.Pattern.Id.t -> 'a -> float) ->
  commit:('a -> unit) ->
  (Mps_pattern.Pattern.Id.t * 'a) list ->
  report
(** Fig. 7 over a candidate pool of interned ids, each with a payload
    ['a] the caller's functions read.  At each of up to [pdef] steps:

    - every candidate that passes {!eq9} is scored with [score id x];
      one that fails scores 0;
    - the highest score wins, ties keeping the earlier candidate, and only
      a score [> 0] can win;
    - [commit x] is called on the winner's payload [x], so the caller
      can add its frequencies to the coverage its [score] reads;
    - the winner's subpatterns (itself included) leave the pool, and its
      colors count as covered;
    - with no winner, {!fabricate}'s pattern is taken instead (no
      [commit], priority 0); when every color is covered the loop stops
      early.

    [score] must not depend on anything but the payload, the id and the
    state [commit] updates.  [evidence] (default false) keeps each step's
    scored candidate list in [priorities], in pool order; without it
    [priorities] is empty.  Opens no span and counts nothing. *)

val select :
  ?params:params -> pdef:int -> Mps_antichain.Classify.t -> Mps_pattern.Pattern.t list
(** Selects up to [pdef] patterns.  Fewer are returned only when the
    candidate pool empties and every color is already covered — then extra
    patterns could not change any schedule.
    @raise Invalid_argument if [pdef < 1]. *)

val select_report :
  ?params:params -> pdef:int -> Mps_antichain.Classify.t -> report
(** Same, keeping the per-step evidence. *)

val covers_all_colors : Mps_dfg.Dfg.t -> Mps_pattern.Pattern.t list -> bool
(** Requirement 1 of §5: the selected patterns jointly cover every color in
    the graph — guaranteed for [select]'s result, and the property that
    makes multi-pattern scheduling total. *)
