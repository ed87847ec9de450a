(* Self-tests of the benchmark's own parts: the checker, the percentile
   code, the seeded generators, and the traced runs' agreement with the
   untraced ones.  Prints one line per test; returns the exit code. *)

module C = Core

let failures = ref 0

let test name f =
  match f () with
  | () -> Printf.printf "ok    %s\n%!" name
  | exception e ->
      incr failures;
      Printf.printf "FAIL  %s: %s\n%!" name (Printexc.to_string e)

let expect cond what = if not cond then failwith what

(* a1 -> b2 -> a4, a3 free; a1 and a3 are an antichain. *)
let small = Checker.make [| "a1"; "b2"; "a3"; "a4" |] [| 'a'; 'b'; 'a'; 'a' |] [ (0, 1); (1, 3) ]

let good = { Checker.rows = [ [ "a1"; "a3" ]; [ "b2" ]; [ "a4" ] ]; row_patterns = [ "aa"; "ab"; "aa" ]; cycles = 3 }

let rejects ?(capacity = 5) ?(selected = [ "aa"; "ab" ]) s =
  Checker.check small ~capacity ~selected s <> []

let checker () =
  test "checker accepts a valid schedule" (fun () ->
      expect (Checker.check small ~capacity:5 ~selected:[ "aa"; "ab" ] good = []) "rejected");
  test "checker rejects a precedence swap" (fun () ->
      expect (rejects { good with rows = [ [ "a1"; "a3" ]; [ "a4" ]; [ "b2" ] ]; row_patterns = [ "aa"; "aa"; "ab" ] }) "accepted");
  test "checker rejects an over-capacity row" (fun () ->
      expect (rejects ~capacity:1 good) "accepted");
  test "checker rejects a row pattern that was not selected" (fun () ->
      expect (rejects ~selected:[ "aa" ] good) "accepted");
  test "checker rejects a row outside its pattern" (fun () ->
      expect (rejects { good with row_patterns = [ "aa"; "aa"; "aa" ] }) "accepted");
  test "checker rejects a missing or repeated node" (fun () ->
      expect (rejects { good with rows = [ [ "a1"; "a3" ]; [ "b2" ]; [ "a3" ] ] }) "accepted");
  test "checker rejects comparable nodes in one row" (fun () ->
      let g = Checker.make [| "a1"; "b2"; "a3" |] [| 'a'; 'b'; 'a' |] [ (0, 1); (1, 2) ] in
      (* a3 depends on a1 through b2; sharing a row is invalid even though
         no edge joins them directly. *)
      let s = { Checker.rows = [ [ "a1"; "a3" ]; [ "b2" ] ]; row_patterns = [ "aa"; "b" ]; cycles = 2 } in
      expect (Checker.check g ~capacity:5 ~selected:[ "aa"; "b" ] s <> []) "accepted");
  test "checker rejects a wrong cycle count" (fun () -> expect (rejects { good with cycles = 4 }) "accepted");
  test "checker accepts the pipeline on 3dft and rejects it corrupted" (fun () ->
      let g = C.Paper_graphs.fig2_3dft () in
      let t = C.Pipeline.run g in
      let truth = Checker.of_dfg_text (C.Dfg_parse.to_string g) in
      let o = Compile_wl.outcome_of t in
      let check s = Checker.check truth ~capacity:5 ~selected:o.Compile_wl.patterns s in
      expect (check o.Compile_wl.schedule = []) "valid schedule rejected";
      let s = o.Compile_wl.schedule in
      let swapped = { s with Checker.rows = List.rev s.Checker.rows } in
      expect (check swapped <> []) "reversed rows accepted")

let percentiles () =
  let near a b = Float.abs (a -. b) < 1e-9 in
  test "percentiles match known samples" (fun () ->
      let xs = Array.init 10 (fun i -> float_of_int (10 - i)) in
      expect (near (Stats.median xs) 5.5) "median of 1..10";
      expect (near (Stats.percentile xs 0.) 1.) "p0";
      expect (near (Stats.percentile xs 100.) 10.) "p100";
      expect (near (Stats.percentile xs 90.) 9.1) "p90 of 1..10";
      let ys = Array.init 100 (fun i -> float_of_int (i + 1)) in
      expect (near (Stats.percentile ys 99.) 99.01) "p99 of 1..100";
      expect (near (Stats.median [| 3.; 1.; 2. |]) 2.) "median of 3";
      expect (near (Stats.median [| 7. |]) 7.) "single sample");
  test "tail percentile needs ten samples beyond it" (fun () ->
      expect (Stats.supported_percentile ~n:1000 [ 99.; 90.; 50. ] = Some 99.) "n=1000";
      expect (Stats.supported_percentile ~n:100 [ 99.; 90.; 50. ] = Some 90.) "n=100";
      expect (Stats.supported_percentile ~n:5 [ 99.; 50. ] = None) "n=5")

let generators () =
  test "seeded generators are deterministic" (fun () ->
      let texts seed =
        let r = Gen.rng seed in
        List.init 20 (fun k ->
            let g = Gen.churn_graph r ~tag:(string_of_int k) in
            let text = C.Dfg_parse.to_string g in
            text ^ Gen.to_dot (Checker.of_dfg_text text))
      in
      expect (texts 7 = texts 7) "same seed, different graphs";
      expect (texts 7 <> texts 8) "different seeds, same graphs";
      let order seed =
        let a = Array.init 50 Fun.id in
        Gen.shuffle (Gen.rng seed) a;
        a
      in
      expect (order 3 = order 3) "same seed, different order";
      let env seed = List.map (fun i -> i.Compile_wl.input) (fst (Compile_wl.setup ~seed)) in
      expect (env 5 = env 5) "compile inputs differ for one seed");
  test "generated DOT and DFG text name the same graph" (fun () ->
      let g = Gen.churn_graph (Gen.rng 11) ~tag:"t" in
      let a = C.Dfg_parse.to_string g in
      let b = C.Dfg_parse.to_string (C.Dfg_parse.of_string (Gen.to_dot (Checker.of_dfg_text a))) in
      expect (a = b) "texts differ")

(* Short traced runs: every graph and request of the traced path must
   reproduce the untraced patterns and cycles (a mismatch is a failed
   operation), and nothing else may fail. *)
let traced_runs () =
  let clean name (acc : Acc.t) =
    if acc.Acc.failed > 0 then
      failwith (Printf.sprintf "%s: %d failed: %s" name acc.Acc.failed (String.concat " | " acc.Acc.failures))
  in
  Trace.enabled := true;
  test "traced compile reproduces the untraced patterns and cycles" (fun () ->
      let keep = [ "3dft"; "fig4"; "w3dft"; "w5dft"; "mm222"; "iir4"; "adv-big"; "huge-deep" ] in
      let items = List.filter (fun i -> List.mem i.Compile_wl.name keep) (fst (Compile_wl.setup ~seed:1)) in
      let acc = Acc.create () in
      ignore (Compile_wl.run ~items ~seconds:0. ~traced:true acc);
      clean "compile" acc;
      expect (acc.Acc.attempted = List.length keep) "not every graph ran");
  test "traced serve-churn twin reproduces every reply" (fun () ->
      let ch, _ = Serve_wl.churn_setup ~seed:3 ~traced:true ~prefix:98 in
      ignore (Serve_wl.churn_run ch ~seed:3 ~seconds:0. ~prefix:98);
      clean "serve-churn" ch.Serve_wl.cloop.Serve_wl.acc);
  test "traced serve-warm twin reproduces every reply" (fun () ->
      let w, _ = Serve_wl.warm_setup ~traced:true in
      ignore (Serve_wl.warm_run w ~seed:3 ~seconds:0.);
      clean "serve-warm" w.Serve_wl.loop.Serve_wl.acc);
  Trace.enabled := false

let run () =
  checker ();
  percentiles ();
  generators ();
  traced_runs ();
  if !failures = 0 then 0 else 1
