(* The compile workload: one batch Pipeline.run per corpus graph at default
   options, fed in as canonical DFG text; the kernels built from a Program
   go through Pipeline.map_program and Pipeline.verify instead, fed in as
   program text with seeded input values. *)

module C = Core

(* Like fft16 these stop at the 5M-antichain budget; the three together
   would triple a pass without exercising anything new. *)
let dropped = [ "dct8"; "fir16" ]

let taps8 = [ 0.5; -0.25; 0.125; 0.75; -0.5; 0.25; -0.125; 1.0 ]

(* The corpus entries built from a Program (Suite only exposes their DFG). *)
let programs =
  [
    ("w3dft", fun () -> C.Dft.winograd3 ());
    ("w5dft", fun () -> C.Dft.winograd5 ());
    ("fft8", fun () -> C.Dft.radix2_fft ~n:8);
    ("mm222", fun () -> C.Kernels.matmul ~m:2 ~k:2 ~n:2);
    ("fir8", fun () -> C.Kernels.fir ~taps:taps8 ~block:4);
    ("iir4", fun () -> C.Kernels.iir_biquad ~b:(0.2, 0.4, 0.2) ~a:(-0.5, 0.25) ~block:4);
    ("horner16", fun () -> C.Kernels.horner ~degree:16);
    ("fft16", fun () -> C.Dft.radix2_fft ~n:16);
    ("dft4", fun () -> C.Dft.direct ~n:4);
    ("mm232", fun () -> C.Kernels.matmul ~m:2 ~k:3 ~n:2);
  ]

type input = Graph of string | Program of string * (string * float) list

type item = { name : string; input : input; truth : Checker.graph }

let names () =
  List.filter_map
    (fun (e : C.Suite.entry) -> if List.mem e.C.Suite.name dropped then None else Some e.C.Suite.name)
    (C.Suite.corpus ~full:true ~huge:true ())

(* The items and the seconds set-up spent inside the program: building
   and serialising the corpus.  The checker's truths are read from the
   same text outside that time. *)
let setup ~seed =
  let r = Gen.rng seed in
  let clock = Acc.clock () in
  let prog f = Acc.in_program clock f in
  let items =
    List.filter_map
      (fun (e : C.Suite.entry) ->
        let name = e.C.Suite.name in
        if List.mem name dropped then None
        else
          let text = prog (fun () -> C.Dfg_parse.to_string (e.C.Suite.build ())) in
          let input =
            match List.assoc_opt name programs with
            | None -> Graph text
            | Some make ->
                let p = prog make in
                if prog (fun () -> C.Dfg_parse.to_string (C.Program.dfg p)) <> text then
                  failwith ("compile: program for " ^ name ^ " no longer matches the corpus graph");
                let env =
                  List.map
                    (fun x -> (x, Float.round (((Gen.float r *. 8.) -. 4.) *. 1024.) /. 1024.))
                    (C.Program.inputs p)
                in
                Program (prog (fun () -> C.Program_text.to_string p), env)
          in
          Some (name, input, text))
      (prog (fun () -> C.Suite.corpus ~full:true ~huge:true ()))
  in
  ( List.map (fun (name, input, text) -> { name; input; truth = Checker.of_dfg_text text }) items,
    Acc.seconds clock )

type outcome = {
  patterns : string list;
  schedule : Checker.schedule;
  truncated : bool;
  antichains : int;
}

let rows_of g s =
  let n = C.Schedule.cycles s in
  {
    Checker.rows = List.init n (fun c -> List.map (C.Dfg.name g) (C.Schedule.nodes_at s c));
    row_patterns = List.init n (fun c -> C.Pattern.to_string (C.Schedule.pattern_at s c));
    cycles = n;
  }

let outcome_of (t : C.Pipeline.t) =
  {
    patterns = List.map C.Pattern.to_string t.C.Pipeline.patterns;
    schedule = rows_of t.C.Pipeline.graph t.C.Pipeline.schedule;
    truncated = t.C.Pipeline.truncated;
    antichains = t.C.Pipeline.antichains;
  }

let env_fn env x = List.assoc x env

(* The operation users run: untraced, timed as a whole. *)
let compile item =
  match item.input with
  | Graph text -> Ok (C.Pipeline.run (C.Dfg_parse.of_string text))
  | Program (text, env) -> (
      match C.Pipeline.map_program (C.Program_text.of_string text) with
      | Error m -> Error ("map_program: " ^ m)
      | Ok m -> (
          match C.Pipeline.verify m ~env:(env_fn env) with
          | Ok () -> Ok m.C.Pipeline.pipeline
          | Error e -> Error ("verify: " ^ e)))

(* The same operation through the layers' public functions, one span
   around each call, in the order Pipeline.run and map_program make them. *)
let compile_traced item =
  let sp name f = Trace.with_span ~op:item.name name f in
  sp ("compile." ^ item.name) @@ fun () ->
  let o = C.Pipeline.default_options in
  let g, program =
    match item.input with
    | Graph text -> (sp "dfg.parse" (fun () -> C.Dfg_parse.of_string text), None)
    | Program (text, env) ->
        let p = sp "frontend.parse" (fun () -> C.Program_text.of_string text) in
        (C.Program.dfg p, Some (p, env))
  in
  let ctx = sp "antichain.make_ctx" (fun () -> C.Enumerate.make_ctx g) in
  let universe = C.Universe.create () in
  let cls =
    sp "antichain.classify" (fun () ->
        C.Classify.compute ?span_limit:o.C.Pipeline.span_limit
          ?budget:o.C.Pipeline.enumeration_budget ~capacity:o.C.Pipeline.capacity ~universe ctx)
  in
  let ev = sp "scheduler.eval_make" (fun () -> C.Eval.make ~universe g) in
  let report =
    sp "select.select" (fun () ->
        C.Select.select_report ~params:o.C.Pipeline.selection ~pdef:o.C.Pipeline.pdef cls)
  in
  let patterns = report.C.Select.patterns in
  let sched =
    sp "scheduler.schedule" (fun () ->
        (C.Eval.schedule ~priority:o.C.Pipeline.priority ev ~patterns).C.Eval.schedule)
  in
  ignore (sp "montium.config" (fun () -> C.Config_space.of_schedule ~tile:o.C.Pipeline.tile sched));
  let hits, misses = C.Eval.cache_stats ev in
  let out =
    {
      patterns = List.map C.Pattern.to_string patterns;
      schedule = rows_of g sched;
      truncated = C.Classify.truncated cls;
      antichains = C.Classify.total_antichains cls;
    }
  in
  let tile = o.C.Pipeline.tile in
  let result =
    match program with
    | None -> Ok out
    | Some (p, env) -> (
        let mapped =
          sp "montium.map" (fun () ->
              match C.Allocation.allocate ~tile p sched with
              | Error m -> Error ("map_program: " ^ m)
              | Ok a ->
                  ignore (C.Energy.estimate ~tile p sched a);
                  Ok a)
        in
        match mapped with
        | Error m -> Error m
        | Ok a -> (
            match
              sp "montium.verify" (fun () ->
                  C.Simulator.check_against_reference ~tile p sched a ~env:(env_fn env))
            with
            | Ok () -> Ok out
            | Error e -> Error ("verify: " ^ e)))
  in
  (result, hits, misses)

let check acc item (o : outcome) =
  match Checker.check item.truth ~capacity:C.Pipeline.default_options.C.Pipeline.capacity
          ~selected:o.patterns o.schedule with
  | [] -> ()
  | errs -> Acc.violation acc "%s: %s" item.name (String.concat "; " errs)

let same_result acc ~what item (a : outcome) (b : outcome) =
  if a.patterns <> b.patterns || a.schedule.Checker.cycles <> b.schedule.Checker.cycles then
    Acc.violation acc "%s: %s gave patterns %s / %d cycles, expected %s / %d" item.name what
      (String.concat "," b.patterns) b.schedule.Checker.cycles (String.concat "," a.patterns)
      a.schedule.Checker.cycles

type report = {
  metrics : (string * float) list;
  info : (string * Mps_util.Json.t) list;
}

(* Passes over the corpus until the next one would end after [seconds].
   Every pass checks each schedule and its agreement with the first pass;
   cycles and heap are read after the first pass, a fixed amount of work. *)
let run ~items ~seconds ~traced acc =
  let t_start = Acc.now_ms () in
  let first = Hashtbl.create 32 in
  let pass_ms = ref [] and passes = ref 0 in
  let graph_ms = Hashtbl.create 32 in
  let cycles_total = ref 0 and heap = ref (0., 0.) and truncated = ref [] in
  let untraced_ms = ref 0. and traced_ms = ref 0. in
  let prefix_end = ref max_int in
  let last = ref 0. in
  while !passes = 0 || Acc.now_ms () -. t_start +. !last <= seconds *. 1000. do
    let p0 = Acc.now_ms () in
    let op_ms = ref 0. in
    List.iter
      (fun item ->
        let t0 = Acc.now_ms () in
        let r = try compile item with e -> Error (Printexc.to_string e) in
        let dt = Acc.now_ms () -. t0 in
        (match r with
        | Error m -> Acc.fail acc "%s: %s" item.name m
        | Ok t ->
            Acc.ok acc;
            Acc.sample acc dt;
            Hashtbl.replace graph_ms item.name (dt :: Option.value ~default:[] (Hashtbl.find_opt graph_ms item.name));
            op_ms := !op_ms +. dt;
            let o = outcome_of t in
            check acc item o;
            (match Hashtbl.find_opt first item.name with
            | None ->
                Hashtbl.replace first item.name o;
                cycles_total := !cycles_total + o.schedule.Checker.cycles;
                if o.truncated then truncated := item.name :: !truncated
            | Some o1 -> same_result acc ~what:"a later pass" item o1 o);
            if traced then begin
              let t1 = Acc.now_ms () in
              let r, hits, misses = try compile_traced item with e -> (Error (Printexc.to_string e), 0, 0) in
              traced_ms := !traced_ms +. (Acc.now_ms () -. t1);
              untraced_ms := !untraced_ms +. dt;
              match r with
              | Error m -> Acc.violation acc "%s (traced): %s" item.name m
              | Ok o' ->
                  same_result acc ~what:"the traced run" item o o';
                  Acc.bump acc "antichains" (float_of_int o'.antichains);
                  Acc.bump acc "truncated" (if o'.truncated then 1. else 0.);
                  Acc.bump acc "eval_hits" (float_of_int hits);
                  Acc.bump acc "eval_lookups" (float_of_int (hits + misses))
            end);
        Host.tick ())
      items;
    incr passes;
    pass_ms := !op_ms :: !pass_ms;
    last := Acc.now_ms () -. p0;
    if !passes = 1 then begin
      heap := Acc.heap_mb ();
      prefix_end := !Trace.next_id
    end
  done;
  let truncated = List.rev !truncated in
  if truncated <> [ "fft16" ] then
    Acc.note acc "expected only fft16 to hit the enumeration budget, got [%s]"
      (String.concat ", " truncated);
  let lat = Acc.latencies acc in
  (* Each graph's median time across passes: a burst of host noise during
     one pass does not move the pass time. *)
  let per_graph =
    Array.of_list (Hashtbl.fold (fun _ ts acc -> Stats.median (Array.of_list ts) :: acc) graph_ms [])
  in
  let passes_ms = Array.of_list !pass_ms in
  let peak, live = !heap in
  let passes_f = float_of_int !passes in
  let metrics =
    if lat = [||] then []
    else
      [
        ("compile_s", Array.fold_left ( +. ) 0. per_graph /. 1000.);
        ("rps", float_of_int (Array.length lat) /. (Array.fold_left ( +. ) 0. lat /. 1000.));
        (* The batch's latency is a pass: percentiles over unlike graphs
           would jump across the gaps between their sizes. *)
        ("latency_p50_ms", Stats.percentile passes_ms 50.);
        ("latency_p99_ms", Stats.percentile passes_ms 99.);
        ("cycles_total", float_of_int !cycles_total);
        ("heap_peak_mb", peak);
        ("heap_live_mb", live);
      ]
  in
  let info =
    Mps_util.Json.
      [
        ("passes", Num passes_f);
        ("pass_s", Arr (List.rev_map (fun ms -> Num (ms /. 1000.)) !pass_ms));
        ("graphs", Num (float_of_int (List.length items)));
        ("truncated", Arr (List.map (fun s -> Str s) truncated));
        ( "graph_median_ms",
          Obj
            (List.filter_map
               (fun i ->
                 Option.map
                   (fun ts -> (i.name, Num (Stats.median (Array.of_list ts))))
                   (Hashtbl.find_opt graph_ms i.name))
               items) );
      ]
  in
  let layer =
    if not traced then []
    else
      [
        ("antichain.antichains", Acc.count acc "antichains" /. passes_f);
        ("antichain.truncated", Acc.count acc "truncated" /. passes_f);
        ( "scheduler.eval_cache_hit_ratio",
          let l = Acc.count acc "eval_lookups" in
          if l = 0. then 0. else Acc.count acc "eval_hits" /. l );
        ("trace.overhead_pct", (!traced_ms -. !untraced_ms) /. !untraced_ms *. 100.);
      ]
  in
  ({ metrics = metrics @ layer; info }, passes_f, !prefix_end)
