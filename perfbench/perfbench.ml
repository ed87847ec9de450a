(* The benchmark's measuring program.  perfbench/run.py builds it and calls

     perfbench.exe --workload W --seed N --seconds S --trace 0|1

   It sets the workload up from the seed, measures for S seconds on one
   domain with no pool, checks every output, and prints one JSON line:
   the end-to-end metrics (trace 0) or the per-layer ones (trace 1), the
   operation counts, the set-up time, and what the checks found.  Also:
   [--setup-only] times one set-up and exits, [--self-test] checks the
   benchmark's own parts, [--spans FILE] writes the traced run's spans. *)

module J = Mps_util.Json

let workloads = [ "compile"; "serve-warm"; "serve-churn" ]

(* The churn stream's epoch, 15 blocks of its request mix: the client
   starts over on an empty session after this many requests.  The first
   epoch is the fixed amount of work read for heap and allocation. *)
let churn_prefix = 1470

(* Layers timed by a span of the same name; each gives [<name>_ms] (mean
   self time per pass on compile, per request on serve) and
   [<name>.alloc_mw] (self allocation over the fixed prefix, in millions
   of words). *)
let layers =
  [
    "dfg.parse"; "frontend.parse"; "antichain.make_ctx"; "antichain.classify";
    "scheduler.eval_make"; "select.select"; "scheduler.schedule"; "select.portfolio";
    "select.exact"; "serve.decode"; "serve.resolve"; "serve.intern"; "serve.classification";
    "serve.edit"; "montium.config"; "montium.map"; "montium.verify";
  ]

let counts =
  [
    "antichain.antichains"; "antichain.antichains_per_s"; "antichain.truncated";
    "scheduler.eval_cache_hit_ratio"; "select.exact_nodes"; "select.exact_evaluated";
    "serve.intern_hit_ratio"; "serve.classification_hit_ratio"; "serve.graphs";
    "serve.classifications"; "trace.overhead_pct";
  ]

let per_layer_names () =
  List.concat_map (fun l -> [ l ^ "_ms"; l ^ ".alloc_mw" ]) (layers @ [ "serve.other" ])
  @ counts
  @ List.concat_map (fun g -> [ "compile." ^ g ^ "_ms"; "compile." ^ g ^ ".alloc_mw" ]) (Compile_wl.names ())

let ratio a b = if b = 0. then 0. else a /. b

(* Per-layer metrics from the recorded spans: [ops] normalizes times,
   [prefix_end] bounds the spans whose allocation is read. *)
let layer_metrics ~ops ~prefix_end ~extra =
  let all = Trace.totals () in
  let prefix = Trace.totals ~keep:(fun s -> s.Trace.id < prefix_end) () in
  let get tbl name = Hashtbl.find_opt tbl name in
  let ms name f = match get all name with Some t -> f t /. 1e6 /. ops | None -> 0. in
  let mw name f = match get prefix name with Some t -> f t /. 1e6 | None -> 0. in
  let self t = t.Trace.self_ns and incl t = t.Trace.incl_ns and words t = t.Trace.self_words in
  let per_layer =
    List.concat_map (fun l -> [ (l ^ "_ms", ms l self); (l ^ ".alloc_mw", mw l words) ]) layers
  in
  let graphs =
    List.concat_map
      (fun g ->
        let n = "compile." ^ g in
        [ (n ^ "_ms", ms n incl); (n ^ ".alloc_mw", mw n (fun t -> words t)) ])
      (Compile_wl.names ())
  in
  let classify_s = ms "antichain.classify" self /. 1000. in
  let derived =
    [
      ( "antichain.antichains_per_s",
        ratio (Option.value ~default:0. (List.assoc_opt "antichain.antichains" extra)) classify_s );
    ]
  in
  let known = per_layer @ graphs @ derived @ extra in
  List.map
    (fun n -> (n, Option.value ~default:0. (List.assoc_opt n known)))
    (per_layer_names ())

let serve_extra (l : Serve_wl.loop) ~requests =
  let acc = l.Serve_wl.acc in
  [
    ("scheduler.eval_cache_hit_ratio", ratio (float_of_int l.Serve_wl.eval_hits) (float_of_int l.Serve_wl.eval_lookups));
    ("select.exact_nodes", Acc.count acc "exact_nodes" /. requests);
    ("select.exact_evaluated", Acc.count acc "exact_evaluated" /. requests);
    ("serve.intern_hit_ratio", ratio (Acc.count acc "intern_hits") (Acc.count acc "intern_lookups"));
    ( "serve.classification_hit_ratio",
      ratio (Acc.count acc "classification_hits") (Acc.count acc "classification_lookups") );
    ("serve.other_ms", l.Serve_wl.other_ms /. requests);
    ("serve.other.alloc_mw", l.Serve_wl.other_words /. 1e6);
    ("trace.overhead_pct", (l.Serve_wl.traced_ms -. l.Serve_wl.untraced_ms) /. l.Serve_wl.untraced_ms *. 100.);
  ]

(* On the serve workloads [compile_s] is the time one unit of work takes:
   a pass over the deck or a churn epoch (median over the run's). *)
let serve_metrics (l : Serve_wl.loop) ~heap:(peak, live) ~unit_s =
  let lat = Acc.latencies l.Serve_wl.acc in
  let total_s = Array.fold_left ( +. ) 0. lat /. 1000. in
  [
    ("compile_s", unit_s);
    ("rps", float_of_int (Array.length lat) /. total_s);
    ("latency_p50_ms", Stats.percentile lat 50.);
    ("latency_p99_ms", Stats.percentile lat 99.);
    ("cycles_total", float_of_int l.Serve_wl.cycles);
    ("heap_peak_mb", peak);
    ("heap_live_mb", live);
  ]

(* End-to-end times scaled to the nominal host (host.ml): [f] for the
   measurement, [f_setup] for the set-up.  Returns the scaled metrics and
   the wall-clock figures they came from. *)
let scale_to_host ~f ~f_setup ~setup_s metrics =
  let scaled =
    List.map
      (fun (k, v) ->
        match k with
        | "compile_s" | "latency_p50_ms" | "latency_p99_ms" -> (k, v *. f)
        | "rps" -> (k, v /. f)
        | _ -> (k, v))
      metrics
  in
  let wall = List.filter (fun (k, _) -> List.mem k [ "compile_s"; "rps"; "latency_p50_ms"; "latency_p99_ms" ]) metrics in
  (scaled, setup_s *. f_setup, ("setup_s", setup_s) :: wall)

(* Samples of the reference loop taken before a set-up (and, in a
   set-up-only process, after it). *)
let setup_samples = 7

type outcome = {
  acc : Acc.t;
  metrics : (string * float) list;
  info : (string * J.t) list;
  setup_s : float;
}

let run_workload ~workload ~seed ~seconds ~traced =
  match workload with
  | "compile" ->
      let items, setup_s = Compile_wl.setup ~seed in
      let acc = Acc.create () in
      let r, passes, prefix_end = Compile_wl.run ~items ~seconds ~traced acc in
      let metrics =
        if traced then layer_metrics ~ops:passes ~prefix_end ~extra:r.Compile_wl.metrics
        else r.Compile_wl.metrics
      in
      (* Classification's share of the time the layers account for. *)
      let layer_ms = List.fold_left (fun s l -> s +. Option.value ~default:0. (List.assoc_opt (l ^ "_ms") metrics)) 0. layers in
      let share = ratio (Option.value ~default:0. (List.assoc_opt "antichain.classify_ms" metrics)) layer_ms in
      let info = if traced then ("classify_share", J.Num share) :: r.Compile_wl.info else r.Compile_wl.info in
      { acc; metrics; info; setup_s }
  | "serve-warm" ->
      let w, setup_s = Serve_wl.warm_setup ~traced in
      let heap, prefix_end, unit_s, info = Serve_wl.warm_run w ~seed ~seconds in
      let l = w.Serve_wl.loop in
      let requests = float_of_int l.Serve_wl.acc.Acc.attempted in
      let metrics =
        if traced then layer_metrics ~ops:requests ~prefix_end ~extra:(serve_extra l ~requests)
        else serve_metrics l ~heap ~unit_s
      in
      { acc = l.Serve_wl.acc; metrics; info; setup_s }
  | "serve-churn" ->
      let ch, setup_s = Serve_wl.churn_setup ~seed ~traced ~prefix:churn_prefix in
      let heap, prefix_end, at_prefix, unit_s, info =
        Serve_wl.churn_run ch ~seed ~seconds ~prefix:churn_prefix
      in
      let l = ch.Serve_wl.cloop in
      let requests = float_of_int l.Serve_wl.acc.Acc.attempted in
      let metrics =
        if traced then layer_metrics ~ops:requests ~prefix_end ~extra:(serve_extra l ~requests @ at_prefix)
        else serve_metrics l ~heap ~unit_s
      in
      { acc = l.Serve_wl.acc; metrics; info; setup_s }
  | w -> failwith ("unknown workload " ^ w)


let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let setup_only = ref false and self_test = ref false and spans = ref "" and list = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W  one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_float seconds, "S  measuring time");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or per-layer (1) metrics");
      ("--setup-only", Arg.Set setup_only, " time one set-up and exit");
      ("--spans", Arg.Set_string spans, "FILE  write the traced run's spans here");
      ("--self-test", Arg.Set self_test, " check the benchmark's own parts");
      ("--list-per-layer", Arg.Set list, " print the per-layer metric names");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload W --seed N --seconds S --trace 0|1";
  if !list then List.iter print_endline (per_layer_names ())
  else if !self_test then exit (Selftest.run ())
  else begin
    if not (List.mem !workload workloads) then begin
      prerr_endline ("perfbench: --workload must be one of " ^ String.concat ", " workloads);
      exit 2
    end;
    let traced = !trace = 1 in
    if !setup_only then begin
      let pre = Host.sample setup_samples in
      let s =
        match !workload with
        | "compile" -> snd (Compile_wl.setup ~seed:!seed)
        | "serve-warm" -> snd (Serve_wl.warm_setup ~traced:false)
        | _ -> snd (Serve_wl.churn_setup ~seed:!seed ~traced:false ~prefix:churn_prefix)
      in
      let post = Host.sample setup_samples in
      print_endline
        (J.to_line (J.Obj [ ("setup_s", J.Num (s *. Host.factor (pre @ post))); ("setup_wall_s", J.Num s) ]))
    end
    else begin
      Trace.enabled := traced;
      let pre = Host.sample setup_samples in
      let o = run_workload ~workload:!workload ~seed:!seed ~seconds:!seconds ~traced in
      let run_samples = !Host.samples in
      (* The set-up is scaled by the samples around it: those taken
         before it and the measurement's. *)
      let f = Host.factor run_samples and f_setup = Host.factor (pre @ run_samples) in
      let metrics, setup_s, wall =
        if traced then (o.metrics, o.setup_s, [])
        else scale_to_host ~f ~f_setup ~setup_s:o.setup_s o.metrics
      in
      let host =
        [
          ("reference_ms", J.Num (Host.median run_samples));
          ("reference_samples", J.Num (float_of_int (List.length run_samples)));
          ("setup_reference_ms", J.Num (Host.median (pre @ run_samples)));
          ("wall", J.Obj (List.map (fun (k, v) -> (k, J.Num v)) wall));
        ]
      in
      if traced && !spans <> "" then Trace.write !spans;
      let acc = o.acc in
      (* Which tail percentile the run's latency samples support (ten
         samples beyond it); latency_p99_ms is reported either way. *)
      let n =
        match List.assoc_opt "passes" o.info with
        | Some (J.Num p) when !workload = "compile" -> int_of_float p
        | _ -> acc.Acc.nlat
      in
      let tail =
        match Stats.supported_percentile ~n [ 99.; 90.; 50. ] with
        | Some p -> J.Str (Printf.sprintf "p%g of %d samples" p n)
        | None -> J.Null
      in
      let strs l = J.Arr (List.rev_map (fun s -> J.Str s) l) in
      print_endline
        (J.to_line
           (J.Obj
              [
                ("correct", J.Bool (acc.Acc.failed = 0 && acc.Acc.attempted > 0));
                ("attempted", J.Num (float_of_int acc.Acc.attempted));
                ("failed", J.Num (float_of_int acc.Acc.failed));
                ("setup_s", J.Num setup_s);
                ("metrics", J.Obj (List.map (fun (k, v) -> (k, J.Num v)) metrics));
                ("failures", strs acc.Acc.failures);
                ("notes", strs acc.Acc.notes);
                ("info", J.Obj ((("tail_percentile", tail) :: o.info) @ [ ("host", J.Obj host) ]));
              ]))
    end
  end
