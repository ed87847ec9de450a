(* Bechamel micro-benchmarks: one Test.make per paper table (timing the code
   that regenerates it) plus scaling benches for the expensive kernels
   (antichain enumeration, classification, selection, scheduling). *)

module Pg = Core.Paper_graphs
module Dfg = Core.Dfg
module Levels = Core.Levels
module Pattern = Core.Pattern
module Enumerate = Core.Enumerate
module Classify = Core.Classify
module Select = Core.Select
module Mp = Core.Multi_pattern
module Random_dag = Core.Random_dag
module Dft = Core.Dft
module Program = Core.Program
open Bechamel
open Toolkit

let capacity = Pg.montium_capacity
let dft3 = Pg.fig2_3dft ()
let fig4 = Pg.fig4_small ()
let w5dft = Program.dfg (Dft.winograd5 ())
let dft3_classify = Classify.compute ~span_limit:1 ~capacity (Enumerate.make_ctx dft3)

let section4_patterns =
  let p1, p2 = Pg.section4_patterns in
  [ Pattern.of_string p1; Pattern.of_string p2 ]

(* One staged test per paper table: the work that regenerates it. *)
let table_tests =
  [
    Test.make ~name:"table1:levels-3dft" (Staged.stage (fun () ->
        ignore (Levels.compute dft3)));
    Test.make ~name:"table2:trace-schedule-3dft" (Staged.stage (fun () ->
        ignore (Mp.schedule ~trace:true ~patterns:section4_patterns dft3)));
    Test.make ~name:"table3:schedule-3-pattern-sets" (Staged.stage (fun () ->
        List.iter
          (fun (pats, _) ->
            ignore (Mp.schedule ~patterns:(List.map Pattern.of_string pats) dft3))
          Pg.table3_pattern_sets));
    Test.make ~name:"table4:classify-fig4" (Staged.stage (fun () ->
        ignore
          (Classify.compute ~keep_antichains:true ~capacity (Enumerate.make_ctx fig4))));
    Test.make ~name:"table5:count-matrix-3dft" (Staged.stage (fun () ->
        ignore
          (Enumerate.count_matrix ~max_size:capacity ~max_span:4
             (Enumerate.make_ctx dft3))));
    Test.make ~name:"table6:frequencies-fig4" (Staged.stage (fun () ->
        ignore (Classify.compute ~capacity (Enumerate.make_ctx fig4))));
    Test.make ~name:"table7:select+schedule-3dft" (Staged.stage (fun () ->
        let pats = Select.select ~pdef:4 dft3_classify in
        ignore (Mp.schedule ~patterns:pats dft3)));
  ]

(* Scaling: the heavy kernels on growing random DAGs. *)
let scaling_tests =
  let graphs =
    List.map
      (fun (layers, width) ->
        let params = { Random_dag.default_params with Random_dag.layers; width } in
        let g = Random_dag.generate ~params ~seed:1 () in
        (Printf.sprintf "%dn" (Dfg.node_count g), g))
      [ (6, 6); (10, 10); (16, 12) ]
  in
  List.concat_map
    (fun (tag, g) ->
      [
        Test.make
          ~name:(Printf.sprintf "enumerate-span1-%s" tag)
          (Staged.stage (fun () ->
               ignore
                 (Enumerate.count ~span_limit:1 ~max_size:capacity
                    (Enumerate.make_ctx g))));
        Test.make
          ~name:(Printf.sprintf "pipeline-%s" tag)
          (Staged.stage (fun () -> ignore (Core.Pipeline.run g)));
      ])
    graphs
  @ [
      Test.make ~name:"pipeline-w5dft"
        (Staged.stage (fun () -> ignore (Core.Pipeline.run w5dft)));
    ]

let run_group name tests =
  let grouped = Test.make_grouped ~name ~fmt:"%s/%s" tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.4) () in
  let raw = Benchmark.all cfg instances grouped in
  let results = List.map (fun instance -> Analyze.all ols instance raw) instances in
  let merged = Analyze.merge ols instances results in
  Hashtbl.iter
    (fun _clock tbl ->
      let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) tbl [] in
      List.iter
        (fun (name, ols) ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> Printf.printf "  %-40s %14.1f ns/run\n" name est
          | Some _ | None -> Printf.printf "  %-40s (no estimate)\n" name)
        (List.sort compare rows))
    merged

let run_all () =
  Printf.printf "\n=== Performance: per-table regeneration cost ===\n";
  run_group "tables" table_tests;
  Printf.printf "\n=== Performance: scaling on random DAGs ===\n";
  run_group "scaling" scaling_tests

(* --- domain scaling: sequential vs parallel, determinism-checked -------

   Measures the execution engine (Mps_exec.Pool) on the two wired hot
   paths: the portfolio workload sweep (classification + every selection
   strategy per graph) and raw antichain enumeration.  The parallel pass
   must produce results identical to the sequential pass — that assertion
   is the hard gate; the speedup number is the report.  On a host with
   fewer cores than [jobs] no speedup is physically possible (OCaml
   domains are OS threads and the minor GC is stop-the-world), so the
   harness prints the core count next to the ratio rather than failing. *)

module Pool = Core.Pool
module Portfolio = Core.Portfolio
module Ofdm = Core.Ofdm
module Kernels = Core.Kernels

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Everything that must be bit-identical between the two passes, in a
   shape polymorphic [=] compares structurally. *)
type sweep_result = {
  sw_name : string;
  sw_antichains : int;
  sw_pattern_pool : int;
  sw_entries : (string * string list * int) list;  (* strategy, patterns, cycles *)
}

let sweep_graph ?pool (name, graph) =
  let cls =
    Classify.compute ?pool ~span_limit:1 ~capacity (Enumerate.make_ctx graph)
  in
  let o = Portfolio.run ?pool ~pdef:4 cls in
  {
    sw_name = name;
    sw_antichains = Classify.total_antichains cls;
    sw_pattern_pool = Classify.pattern_count cls;
    sw_entries =
      List.map
        (fun e ->
          ( e.Portfolio.strategy,
            List.map Pattern.to_string e.Portfolio.patterns,
            e.Portfolio.cycles ))
        o.Portfolio.all;
  }

let scaling_workloads ~smoke =
  let base =
    [
      ("3dft", lazy (Pg.fig2_3dft ()));
      ("fig4", lazy (Pg.fig4_small ()));
      ("w5dft", lazy w5dft);
    ]
  in
  let heavy =
    [
      ("fft8", lazy (Program.dfg (Dft.radix2_fft ~n:8)));
      ("ofdm4", lazy (Program.dfg (Ofdm.receiver ~n:4)));
      ("dct8", lazy (Program.dfg (Kernels.dct8 ())));
      ( "rand-16x12",
        lazy
          (Random_dag.generate
             ~params:{ Random_dag.default_params with Random_dag.layers = 16; width = 12 }
             ~seed:1 ()) );
    ]
  in
  List.map
    (fun (n, g) -> (n, Lazy.force g))
    (if smoke then base else base @ heavy)

let pp_speedup label tseq tpar =
  Printf.printf "  %-24s seq %8.3f s   par %8.3f s   speedup %.2fx\n" label tseq
    tpar
    (if tpar > 0. then tseq /. tpar else Float.nan)

let run_scaling ?(smoke = false) ~jobs () =
  let cores = Domain.recommended_domain_count () in
  Printf.printf "\n=== Domain scaling: sequential vs --jobs %d (host cores: %d) ===\n"
    jobs cores;
  let workloads = scaling_workloads ~smoke in
  (* Portfolio sweep: classification dominated, parallel inside each graph
     (root fan-out + one task per strategy). *)
  let seq, t_seq = wall (fun () -> List.map (fun w -> sweep_graph w) workloads) in
  let par, t_par =
    Pool.with_pool ~jobs (fun pool ->
        wall (fun () -> List.map (fun w -> sweep_graph ~pool w) workloads))
  in
  let sweep_ok = seq = par in
  pp_speedup "portfolio-sweep" t_seq t_par;
  (* Raw enumeration on the widest workload of the set. *)
  let _, last_graph = List.nth workloads (List.length workloads - 1) in
  let ctx = Enumerate.make_ctx last_graph in
  let span = if smoke then 1 else 2 in
  let c_seq, te_seq =
    wall (fun () -> Enumerate.count ~span_limit:span ~max_size:capacity ctx)
  in
  let c_par, te_par =
    Pool.with_pool ~jobs (fun pool ->
        wall (fun () ->
            Enumerate.count ~pool ~span_limit:span ~max_size:capacity ctx))
  in
  let enum_ok = c_seq = c_par in
  pp_speedup "enumerate-count" te_seq te_par;
  if not (sweep_ok && enum_ok) then begin
    Printf.printf
      "DETERMINISM MISMATCH: parallel results differ from sequential (sweep %b, \
       enumerate %b)\n"
      sweep_ok enum_ok;
    exit 1
  end;
  Printf.printf "  determinism: parallel results identical to sequential (%d workloads)\n"
    (List.length workloads);
  if cores < jobs then
    Printf.printf
      "  note: host has %d core(s) for %d domains; speedup requires >= %d cores\n"
      cores jobs jobs

(* --- pattern ops: interning + matrix vs direct subpattern --------------

   Times the three primitives the universe exists for: interning a pool of
   patterns, and all-pairs subpattern tests answered directly (multiset
   walk) vs from the warmed dominance matrix.  The two all-pairs passes
   must agree exactly, and the matrix must beat the walk by at least 5x —
   both are hard gates (check.sh runs the smoke variant). *)

module Universe = Core.Universe

let run_pattern_ops ?(smoke = false) () =
  let colors = List.map Core.Color.of_char [ 'a'; 'b'; 'c'; 'd'; 'e'; 'f' ] in
  let pats = Array.of_list (Pattern.enumerate ~colors ~max_size:capacity) in
  let n = Array.length pats in
  let reps = if smoke then 50 else 400 in
  let (), t_intern =
    wall (fun () ->
        for _ = 1 to reps do
          let u = Universe.create ~expected:n () in
          Array.iter (fun p -> ignore (Universe.intern u p)) pats
        done)
  in
  let hits_direct = ref 0 in
  let (), t_direct =
    wall (fun () ->
        for _ = 1 to reps do
          for i = 0 to n - 1 do
            let p = pats.(i) in
            for j = 0 to n - 1 do
              if Pattern.subpattern pats.(j) ~of_:p then incr hits_direct
            done
          done
        done)
  in
  let u = Universe.create ~expected:n () in
  let ids = Array.map (Universe.intern u) pats in
  (* First query pays the lazy matrix build; warm it outside the clock. *)
  ignore (Universe.subpattern u ids.(0) ~of_:ids.(0));
  let hits_matrix = ref 0 in
  let (), t_matrix =
    wall (fun () ->
        for _ = 1 to reps do
          for i = 0 to n - 1 do
            let pid = ids.(i) in
            for j = 0 to n - 1 do
              if Universe.subpattern u ids.(j) ~of_:pid then incr hits_matrix
            done
          done
        done)
  in
  let queries = float_of_int (reps * n * n) in
  let per_query t = t *. 1e9 /. queries in
  Printf.printf "\n=== Pattern ops: %d patterns, %d reps ===\n" n reps;
  Printf.printf "  intern             %10.1f ns/pattern\n"
    (t_intern *. 1e9 /. float_of_int (reps * n));
  Printf.printf "  subpattern/direct  %10.1f ns/query (%d positive)\n"
    (per_query t_direct) !hits_direct;
  Printf.printf "  subpattern/matrix  %10.1f ns/query (%d positive)\n"
    (per_query t_matrix) !hits_matrix;
  if !hits_direct <> !hits_matrix then begin
    Printf.printf "MISMATCH: matrix answers differ from the direct multiset walk\n";
    exit 1
  end;
  let speedup = if t_matrix > 0. then t_direct /. t_matrix else Float.infinity in
  Printf.printf "  matrix speedup     %10.2fx\n" speedup;
  if speedup < 5.0 then begin
    Printf.printf
      "REGRESSION: matrix subpattern under 5x faster than the multiset walk\n";
    exit 1
  end

(* --- eval ops: cold schedule vs warm context vs memo cache -------------

   Times the three ways a search can cost a pattern set on one graph: the
   full [Multi_pattern.schedule] path (fresh analyses and a [Schedule.t]
   per call), one shared [Eval] context evaluating distinct sets (analyses
   amortized, dense inner loop, nothing cached yet), and the same context
   re-answering sets it has already scheduled (pure memo-cache hits).  All
   three must agree on every cycle count, the cache must report exactly
   the expected hit/miss split, and the warm context must beat the cold
   path by at least 5x — hard gates (check.sh runs the smoke variant).
   The line starting with '{' is machine-readable JSON; BENCH_eval.json
   at the repo root is one committed full-mode capture of it. *)

module Rng = Core.Rng
module Schedule = Core.Schedule
module Eval = Core.Eval
module Random_select = Core.Random_select

(* Best-of-N wall time: the timed regions are a few milliseconds, so a
   single sample is at the mercy of scheduler noise; the minimum of a few
   trials is the stable figure (first trial also absorbs warm-up). *)
let wall_min trials f =
  let best = ref infinity in
  for _ = 1 to trials do
    let (), t = wall f in
    if t < !best then best := t
  done;
  !best

let run_eval_ops ?(smoke = false) () =
  let g = dft3 in
  let target = if smoke then 32 else 64 in
  let reps = if smoke then 50 else 100 in
  let trials = 3 in
  let rng = Rng.create ~seed:7 in
  let colors = Dfg.colors g in
  (* Distinct coverage-complete sets; the canonical key ignores order so
     the warm pass never accidentally hits the (order-insensitive) cache. *)
  let seen = Hashtbl.create 97 in
  let sets = ref [] in
  let guard = ref 0 in
  while List.length !sets < target && !guard < target * 50 do
    incr guard;
    let ps = Random_select.select rng ~colors ~capacity ~pdef:4 in
    let key =
      String.concat "|" (List.sort compare (List.map Pattern.to_string ps))
    in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      sets := ps :: !sets
    end
  done;
  let sets = Array.of_list (List.rev !sets) in
  let nsets = Array.length sets in
  let cold = Array.make nsets 0 in
  let t_cold =
    wall_min trials (fun () ->
        for _ = 1 to reps do
          for i = 0 to nsets - 1 do
            let r = Mp.schedule ~patterns:sets.(i) g in
            cold.(i) <- Schedule.cycles r.Mp.schedule
          done
        done)
  in
  let warm = Array.make nsets 0 in
  let t_warm =
    wall_min trials (fun () ->
        for _ = 1 to reps do
          (* Fresh context per rep: every set is a miss, so this times the
             dense evaluation loop with analyses amortized over [nsets]. *)
          let ev = Eval.make g in
          for i = 0 to nsets - 1 do
            warm.(i) <- Eval.cycles ev sets.(i)
          done
        done)
  in
  let ev = Eval.make g in
  let hot = Array.make nsets 0 in
  for i = 0 to nsets - 1 do
    hot.(i) <- Eval.cycles ev sets.(i)
  done;
  let t_hit =
    wall_min trials (fun () ->
        for _ = 1 to reps do
          for i = 0 to nsets - 1 do
            hot.(i) <- Eval.cycles ev sets.(i)
          done
        done)
  in
  let hits, misses = Eval.cache_stats ev in
  let evals = float_of_int (reps * nsets) in
  let per t = t *. 1e9 /. evals in
  let warm_speedup = if t_warm > 0. then t_cold /. t_warm else Float.infinity in
  let hit_speedup = if t_hit > 0. then t_cold /. t_hit else Float.infinity in
  Printf.printf "\n=== Eval ops: %d pattern sets on 3dft, %d reps ===\n" nsets
    reps;
  Printf.printf "  cold Multi_pattern.schedule %10.1f ns/eval\n" (per t_cold);
  Printf.printf "  warm Eval.cycles (miss)     %10.1f ns/eval\n" (per t_warm);
  Printf.printf "  hot  Eval.cycles (hit)      %10.1f ns/eval\n" (per t_hit);
  Printf.printf "  warm speedup %10.2fx   hit speedup %10.2fx\n" warm_speedup
    hit_speedup;
  if cold <> warm || cold <> hot then begin
    Printf.printf
      "MISMATCH: cold/warm/hit cycle counts disagree on some pattern set\n";
    exit 1
  end;
  if misses <> nsets || hits <> trials * reps * nsets then begin
    Printf.printf
      "MISMATCH: cache reports %d hits / %d misses, expected %d / %d\n" hits
      misses
      (trials * reps * nsets)
      nsets;
    exit 1
  end;
  (* --- delta row: suffix replay vs full re-evaluation ---------------

     A move stream where delta shines: a deep two-wide pipeline whose
     first [layers - 9] layers are all one color and only the nine tail
     layers cycle through the colors the moves touch (c, d, e).  A set is
     the constant "aa" plus one single-color pattern per tail color;
     every move swaps one of those three slots for a different size, so
     the first divergent cycle is the first tail cycle — placed one past
     the checkpoint ladder's 211 so [Eval.cycles_delta] restores there
     and replays only the tail, while the full path re-steps the whole
     pipeline.  Walking the 5x5x5 size grid in snake order gives 124
     single-swap moves over 125 distinct sets per context, so the one
     recorded full evaluation opening each stream is amortized exactly as
     it is in an annealing or beam move loop.  Each rep walks the stream
     on a fresh context (every set a miss), but the contexts are built
     outside the clock, with a major collection between: graph analyses
     cost the same on both sides and their garbage would otherwise be
     collected inside the timed region. *)
  let dlayers = 221 in
  let dtail = 9 in
  let dreps = if smoke then 4 else 10 in
  let dg =
    let name l k = Printf.sprintf "n%d_%d" l k in
    let color l =
      if l < dlayers - dtail then 'a'
      else [| 'c'; 'd'; 'e' |].((l - (dlayers - dtail)) mod 3)
    in
    let nodes = ref [] and edges = ref [] in
    for l = dlayers - 1 downto 0 do
      for k = 1 downto 0 do
        nodes := (name l k, Core.Color.of_char (color l)) :: !nodes;
        if l > 0 then
          for p = 0 to 1 do
            edges := (name (l - 1) p, name l k) :: !edges
          done
      done
    done;
    Dfg.of_alist !nodes !edges
  in
  let base = Pattern.of_string "aa" in
  let slot c k = Pattern.of_string (String.make (k + 1) c) in
  let set (i, j, k) = [ base; slot 'c' i; slot 'd' j; slot 'e' k ] in
  (* Boustrophedon walk of the size grid: consecutive triples differ in
     exactly one coordinate, by one size step. *)
  let stream =
    let acc = ref [] in
    for i = 0 to 4 do
      let js = if i mod 2 = 0 then [ 0; 1; 2; 3; 4 ] else [ 4; 3; 2; 1; 0 ] in
      List.iteri
        (fun jx j ->
          let ks =
            if (i * 5 + jx) mod 2 = 0 then [ 0; 1; 2; 3; 4 ]
            else [ 4; 3; 2; 1; 0 ]
          in
          List.iter (fun k -> acc := (i, j, k) :: !acc) ks)
        js
    done;
    Array.of_list (List.rev !acc)
  in
  let nv = Array.length stream in
  let moved prev next =
    (* The one slot the snake walk changed. *)
    let (pi, pj, pk), (ni, nj, nk) = (prev, next) in
    if pi <> ni then (slot 'c' pi, slot 'c' ni)
    else if pj <> nj then (slot 'd' pj, slot 'd' nj)
    else (slot 'e' pk, slot 'e' nk)
  in
  let wall_min_fresh ~delta f =
    let best = ref infinity in
    for _ = 1 to trials do
      let evs = Array.init dreps (fun _ -> Eval.make ~delta dg) in
      Gc.full_major ();
      let (), t = wall (fun () -> Array.iter f evs) in
      if t < !best then best := t
    done;
    !best
  in
  let dfull = Array.make nv 0 in
  let t_dfull =
    wall_min_fresh ~delta:false (fun ev ->
        for i = 0 to nv - 1 do
          dfull.(i) <- Eval.cycles ev (set stream.(i))
        done)
  in
  let walk_delta out ev =
    out.(0) <- Eval.cycles ev (set stream.(0));
    for i = 1 to nv - 1 do
      let removed, added = moved stream.(i - 1) stream.(i) in
      out.(i) <-
        Eval.cycles_delta ev ~removed ~prev:(set stream.(i - 1)) ~added
    done
  in
  let ddelta = Array.make nv 0 in
  let t_ddelta = wall_min_fresh ~delta:true (walk_delta ddelta) in
  (* One untimed pass to pin the accounting: every move a delta hit, no
     fallbacks, every set exactly one cache miss. *)
  let ev = Eval.make ~delta:true dg in
  walk_delta ddelta ev;
  let d_hits, d_fallbacks, d_saved = Eval.delta_stats ev in
  let dch, dcm = Eval.cache_stats ev in
  let devals = float_of_int (dreps * nv) in
  let dper t = t *. 1e9 /. devals in
  let delta_speedup =
    if t_ddelta > 0. then t_dfull /. t_ddelta else Float.infinity
  in
  Printf.printf "\n=== Eval delta: %d-swap stream on deep%dx2, %d reps ===\n"
    (nv - 1) dlayers dreps;
  Printf.printf "  full Eval.cycles (miss)     %10.1f ns/eval\n" (dper t_dfull);
  Printf.printf "  delta suffix replay         %10.1f ns/eval\n" (dper t_ddelta);
  Printf.printf "  delta speedup %9.2fx   (%d hits, %d fallbacks, %d cycles saved)\n"
    delta_speedup d_hits d_fallbacks d_saved;
  if dfull <> ddelta then begin
    Printf.printf
      "MISMATCH: delta and full cycle counts disagree on some move\n";
    exit 1
  end;
  if d_hits <> nv - 1 || d_fallbacks <> 0 || d_saved <= 0 then begin
    Printf.printf
      "MISMATCH: delta stats report %d hits / %d fallbacks / %d saved, \
       expected %d / 0 / >0\n"
      d_hits d_fallbacks d_saved (nv - 1);
    exit 1
  end;
  if dch <> 0 || dcm <> nv then begin
    Printf.printf
      "MISMATCH: delta pass cache reports %d hits / %d misses, expected 0 / %d\n"
      dch dcm nv;
    exit 1
  end;
  Printf.printf
    "{\"bench\":\"eval-ops\",\"graph\":\"3dft\",\"smoke\":%b,\"sets\":%d,\
     \"reps\":%d,\"cold_ns_per_eval\":%.1f,\"warm_ns_per_eval\":%.1f,\
     \"hit_ns_per_eval\":%.1f,\"warm_speedup\":%.2f,\"hit_speedup\":%.2f,\
     \"cache_hits\":%d,\"cache_misses\":%d,\"delta_graph\":\"deep%dx2\",\
     \"delta_moves\":%d,\"delta_reps\":%d,\"delta_full_ns_per_eval\":%.1f,\
     \"delta_ns_per_eval\":%.1f,\"delta_speedup\":%.2f,\"delta_hits\":%d,\
     \"delta_fallbacks\":%d,\"delta_cycles_saved\":%d}\n"
    smoke nsets reps (per t_cold) (per t_warm) (per t_hit) warm_speedup
    hit_speedup hits misses dlayers (nv - 1) dreps (dper t_dfull)
    (dper t_ddelta) delta_speedup d_hits d_fallbacks d_saved;
  if warm_speedup < 5.0 then begin
    Printf.printf
      "REGRESSION: warm Eval.cycles under 5x faster than cold \
       Multi_pattern.schedule\n";
    exit 1
  end;
  if delta_speedup < 3.0 then begin
    Printf.printf
      "REGRESSION: Eval.cycles_delta under 3x faster than full \
       re-evaluation on the move stream\n";
    exit 1
  end
