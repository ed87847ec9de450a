module Dfg = Mps_dfg.Dfg
module Levels = Mps_dfg.Levels
module Reachability = Mps_dfg.Reachability
module Bitset = Mps_util.Bitset
module Pool = Mps_exec.Pool
module Obs = Mps_obs.Obs

type ctx = {
  graph : Dfg.t;
  levels : Levels.t;
  reach : Reachability.t;
  asap : int array;
  alap : int array;
  par : Bitset.t array;
}

let make_ctx graph =
  let levels = Levels.compute graph and reach = Reachability.compute graph in
  let n = Dfg.node_count graph in
  {
    graph;
    levels;
    reach;
    asap = Array.init n (Levels.asap levels);
    alap = Array.init n (Levels.alap levels);
    par = Array.init n (Reachability.parallel_set reach);
  }

let ctx_graph ctx = ctx.graph
let ctx_levels ctx = ctx.levels
let ctx_reachability ctx = ctx.reach

exception Budget_exhausted

let check_args ?span_limit ?budget ~max_size () =
  if max_size < 1 then invalid_arg "Enumerate.iter: max_size must be >= 1";
  (match span_limit with
  | Some l when l < 0 -> invalid_arg "Enumerate.iter: negative span_limit"
  | _ -> ());
  match budget with
  | Some b when b < 0 -> invalid_arg "Enumerate.iter: negative budget"
  | _ -> ()

(* The walk's whole state, allocated once per call: a depth-indexed stack
   of candidate bitsets ([stack.(d)] = nodes after [chosen.(d)] parallel
   with all of [chosen.(0..d)]; level 0 aliases the root's read-only
   parallel set), the chosen nodes, and the budget left.  A visit writes
   nothing but stack levels and ints, so the walk itself allocates
   nothing per antichain. *)
type walker = {
  ctx : ctx;
  max_size : int;
  limit : int; (* span limit; max_int when unlimited *)
  stack : Bitset.t array;
  chosen : int array;
  mutable remaining : int;
}

let walker ?span_limit ?budget ~max_size ctx =
  check_args ?span_limit ?budget ~max_size ();
  let n = Dfg.node_count ctx.graph in
  (* No antichain has more nodes than the graph. *)
  let depth = max 1 (min max_size n) in
  {
    ctx;
    max_size;
    limit = Option.value span_limit ~default:max_int;
    stack =
      Array.init depth (fun d -> if d = 0 then Bitset.create 0 else Bitset.create n);
    chosen = Array.make depth 0;
    remaining = Option.value budget ~default:max_int;
  }

let chosen w = w.chosen

(* The span of a growing set is tracked incrementally: adding a node can only
   raise max(ASAP) and lower min(ALAP), so span never shrinks along a branch
   and a limit violation prunes the whole subtree.

   [walk_root] visits every antichain whose smallest node id is [root]: the
   root subtrees partition the enumeration, which is what both the
   sequential loop and the domain-parallel fan-out are built on. *)
let walk_root w ~visit root =
  if root < 0 || root >= Dfg.node_count w.ctx.graph then
    invalid_arg "Enumerate.walk_root: root out of range";
  let { asap; alap; par; _ } = w.ctx in
  let { stack; chosen; limit; max_size; _ } = w in
  (* Span-limit subtree prunes, reported as one counter increment per root
     walk so the enumeration's pruning behaviour shows up in [--stats]
     without any per-antichain instrumentation cost.  Summed per root, the
     total is identical however the roots are spread over domains. *)
  let pruned = ref 0 in
  let emit depth j span =
    if w.remaining = 0 then raise Budget_exhausted;
    w.remaining <- w.remaining - 1;
    Array.unsafe_set chosen depth j;
    visit depth j span
  in
  (* The unchecked accesses below stay in bounds by construction: node ids
     come from bitsets over [0, n), and depth + 1 < min max_size n
     whenever a node is chosen at depth + 1. *)
  let rec extend depth max_asap min_alap =
    let compat = Array.unsafe_get stack depth in
    let j = ref (Bitset.next_from compat (Array.unsafe_get chosen depth + 1)) in
    while !j >= 0 do
      let jj = !j in
      let max_asap' = Int.max max_asap (Array.unsafe_get asap jj) in
      let min_alap' = Int.min min_alap (Array.unsafe_get alap jj) in
      let span = Int.max 0 (max_asap' - min_alap') in
      if span <= limit then begin
        emit (depth + 1) jj span;
        if depth + 2 < max_size then begin
          Bitset.inter_of
            ~dst:(Array.unsafe_get stack (depth + 1))
            compat (Array.unsafe_get par jj);
          extend (depth + 1) max_asap' min_alap'
        end
      end
      else incr pruned;
      (* Continue with the next candidate at this depth whether or not jj
         survived the span check: a later node may have milder levels. *)
      j := Bitset.next_from compat (jj + 1)
    done
  in
  emit 0 root 0;
  if max_size > 1 then begin
    stack.(0) <- par.(root);
    extend 0 asap.(root) alap.(root)
  end;
  if !pruned > 0 then Obs.count "enumerate.pruned" !pruned

let walk w ~visit =
  for root = 0 to Dfg.node_count w.ctx.graph - 1 do
    walk_root w ~visit root
  done

let antichain w depth = Antichain.of_sorted_prefix w.chosen (depth + 1)

let iter ?span_limit ?budget ~max_size ctx ~f =
  let w = walker ?span_limit ?budget ~max_size ctx in
  walk w ~visit:(fun depth _ _ -> f (antichain w depth))

(* --- domain-parallel fan-out ----------------------------------------- *)

(* Root subtrees are independent, so each becomes one pool task; per-root
   results are merged in root order, which reproduces the sequential visit
   order exactly.  Chunk 1 everywhere: subtree sizes are wildly skewed (a
   source above a wide layer owns most of the antichains), so dynamic
   scheduling is what buys the speedup.  A [budget] is inherently
   sequential — it cuts a prefix of the visit order — so the budgeted entry
   points ({!iter}) take no pool. *)

let use_pool = function
  | Some p when Pool.jobs p > 1 -> Some p
  | _ -> None

(* One pool task per root, each on its own walker (walkers are mutable
   scratch, so domains never share one); [visit w] is the task's visitor. *)
let map_roots pool ?span_limit ~max_size ctx ~init ~visit =
  Pool.map pool
    ~f:(fun root ->
      let w = walker ?span_limit ~max_size ctx in
      let acc = init () in
      walk_root w ~visit:(visit w acc) root;
      acc)
    (List.init (Dfg.node_count ctx.graph) Fun.id)

(* The sequential form of the same accumulation: one walker, every root. *)
let walk_all ?span_limit ~max_size ctx ~acc ~visit =
  let w = walker ?span_limit ~max_size ctx in
  walk w ~visit:(visit w acc);
  acc

let all ?pool ?span_limit ~max_size ctx =
  check_args ?span_limit ~max_size ();
  Obs.span "enumerate" @@ fun () ->
  let visit w acc depth _ _ = acc := antichain w depth :: !acc in
  match use_pool pool with
  | Some pool ->
      List.concat_map
        (fun acc -> List.rev !acc)
        (map_roots pool ?span_limit ~max_size ctx ~init:(fun () -> ref []) ~visit)
  | None -> List.rev !(walk_all ?span_limit ~max_size ctx ~acc:(ref []) ~visit)

let count ?pool ?span_limit ~max_size ctx =
  check_args ?span_limit ~max_size ();
  Obs.span "enumerate" @@ fun () ->
  let visit _ c _ _ _ = incr c in
  match use_pool pool with
  | Some pool ->
      List.fold_left
        (fun acc c -> acc + !c)
        0
        (map_roots pool ?span_limit ~max_size ctx ~init:(fun () -> ref 0) ~visit)
  | None -> !(walk_all ?span_limit ~max_size ctx ~acc:(ref 0) ~visit)

let count_by_size ?pool ?span_limit ~max_size ctx =
  check_args ?span_limit ~max_size ();
  Obs.span "enumerate" @@ fun () ->
  let init () = Array.make (max_size + 1) 0 in
  let visit _ counts depth _ _ = counts.(depth + 1) <- counts.(depth + 1) + 1 in
  match use_pool pool with
  | Some pool ->
      let counts = init () in
      List.iter
        (Array.iteri (fun s c -> counts.(s) <- counts.(s) + c))
        (map_roots pool ?span_limit ~max_size ctx ~init ~visit);
      counts
  | None -> walk_all ?span_limit ~max_size ctx ~acc:(init ()) ~visit

let count_matrix ?pool ~max_size ~max_span ctx =
  check_args ~span_limit:max_span ~max_size ();
  Obs.span "enumerate" @@ fun () ->
  let span_limit = max_span in
  let init () = Array.make_matrix (max_span + 1) (max_size + 1) 0 in
  let visit _ m depth _ span = m.(span).(depth + 1) <- m.(span).(depth + 1) + 1 in
  let exact =
    match use_pool pool with
    | Some pool ->
        let exact = init () in
        List.iter
          (Array.iteri (fun l ->
               Array.iteri (fun s c -> exact.(l).(s) <- exact.(l).(s) + c)))
          (map_roots pool ~span_limit ~max_size ctx ~init ~visit);
        exact
    | None -> walk_all ~span_limit ~max_size ctx ~acc:(init ()) ~visit
  in
  (* Prefix-sum over span so row l counts span <= l. *)
  let m = Array.make_matrix (max_span + 1) (max_size + 1) 0 in
  for l = 0 to max_span do
    for s = 0 to max_size do
      m.(l).(s) <- exact.(l).(s) + if l > 0 then m.(l - 1).(s) else 0
    done
  done;
  m
