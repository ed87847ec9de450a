(* The two serve workloads: one closed-loop client calling
   Server.handle_line in-process, waiting for each reply before sending
   the next request.  The transport is left out: Server.run reads a batch
   of lines before answering, so a client waiting on each reply over a
   pipe would stall. *)

module C = Core
module S = Mps_serve
module P = Mps_serve.Protocol
module J = Mps_util.Json

let budget = Option.get C.Pipeline.default_options.C.Pipeline.enumeration_budget

let str s = J.Str s
let num n = J.Num (float_of_int n)

let line id cmd ?(options = []) ?(extra = []) source =
  J.to_line
    (J.Obj
       ([ ("id", str id); ("cmd", str cmd) ]
       @ source
       @ (if options = [] then [] else [ ("options", J.Obj options) ])
       @ extra))

(* ---- responses ---- *)

let field k j = J.member k j
let bool_field k j = match field k j with Some (J.Bool b) -> Some b | _ -> None
let int_field k j = match field k j with Some (J.Num f) -> Some (int_of_float f) | _ -> None

let strings = function
  | Some (J.Arr l) -> List.filter_map (function J.Str s -> Some s | _ -> None) l
  | _ -> []

let schedule_of j =
  match field "rows" j with
  | Some (J.Arr rows) ->
      Some
        {
          Checker.rows = List.map (fun r -> strings (Some r)) rows;
          row_patterns = strings (field "row_patterns" j);
          cycles = Option.value ~default:(-1) (int_field "cycles" j);
        }
  | _ -> None

(* The patterns and cycles a response reports, whatever the command. *)
let result_of j =
  match field "cmd" j with
  | Some (J.Str "portfolio") -> (
      let winner = field "winner" j and entries = field "entries" j in
      let cycles = Option.value ~default:(-1) (int_field "cycles" j) in
      match (winner, entries) with
      | Some (J.Str w), Some (J.Arr es) ->
          let pats =
            List.find_map
              (fun e -> if field "strategy" e = Some (J.Str w) then Some (strings (field "patterns" e)) else None)
              es
          in
          (Option.value ~default:[] pats, cycles)
      | _ -> ([], cycles))
  | Some (J.Str "certify") -> (
      match field "exact" j with
      | Some e -> (strings (field "patterns" e), Option.value ~default:(-1) (int_field "cycles" e))
      | None -> ([], -1))
  | _ -> (strings (field "patterns" j), Option.value ~default:(-1) (int_field "cycles" j))

let cache_stats j =
  match Option.bind (field "stats" j) (field "eval_cache") with
  | Some c -> (Option.value ~default:0 (int_field "hits" c), Option.value ~default:0 (int_field "misses" c))
  | None -> (0, 0)

(* ---- the traced twin ---- *)

(* Server.options_of_request is private; this mirrors it for the options
   the benchmark sends.  Phase commands classify unbudgeted, pipeline and
   certify under the default budget. *)
let options_of (r : P.request) =
  let d = C.Pipeline.default_options in
  let opt_limit v default = match v with Some n when n < 0 -> None | Some n -> Some n | None -> default in
  {
    d with
    C.Pipeline.pdef = Option.value r.P.pdef ~default:d.C.Pipeline.pdef;
    capacity = Option.value r.P.capacity ~default:d.C.Pipeline.capacity;
    span_limit = opt_limit r.P.span d.C.Pipeline.span_limit;
    enumeration_budget =
      opt_limit r.P.budget
        (match r.P.command with P.Pipeline | P.Certify -> d.C.Pipeline.enumeration_budget | _ -> None);
  }

type twin_result = Twin_ok of string list * int | Twin_error of string

(* One request on the twin session through the layers' public functions,
   one span around each call, in the order Server.handle_line makes them. *)
let twin_request acc twin ~id text =
  let sp name f = Trace.with_span ~op:id name f in
  sp "serve.request" @@ fun () ->
  match sp "serve.decode" (fun () -> P.request_of_line text) with
  | Error e -> Twin_error e.P.message
  | Ok r -> (
      let graph =
        match r.P.source with
        | None -> Error "no graph"
        | Some (P.Builtin _ as s) -> sp "serve.resolve" (fun () -> S.Server.resolve_source s)
        | Some (P.Dfg_text t | P.Dot_text t) -> (
            match sp "dfg.parse" (fun () -> C.Dfg_parse.of_string t) with
            | g -> Ok g
            | exception C.Dfg_parse.Parse_error { message; _ } -> Error message
            | exception C.Dfg.Cycle _ -> Error "cycle")
      in
      match graph with
      | Error m -> Twin_error m
      | Ok g -> (
          let options = options_of r in
          let e, hit = sp "serve.intern" (fun () -> S.Session.intern twin g) in
          Acc.bump acc "intern_lookups" 1.;
          if hit then Acc.bump acc "intern_hits" 1.;
          let _, warm =
            sp "serve.classification" (fun () ->
                S.Session.classification twin e ~capacity:options.C.Pipeline.capacity
                  ~span_limit:options.C.Pipeline.span_limit
                  ~budget:options.C.Pipeline.enumeration_budget)
          in
          Acc.bump acc "classification_lookups" 1.;
          if warm then Acc.bump acc "classification_hits" 1.;
          let pstr = List.map C.Pattern.to_string in
          let cycles_of s = C.Schedule.cycles s in
          try
            match r.P.command with
            | P.Select ->
                let report, _ = sp "select.select" (fun () -> S.Session.select_report twin e ~options) in
                let pats = report.C.Select.patterns in
                let cycles =
                  sp "scheduler.schedule" (fun () ->
                      try S.Session.set_cycles twin e ~options pats with C.Eval.Unschedulable _ -> -1)
                in
                Twin_ok (pstr pats, cycles)
            | P.Schedule ->
                let pats = List.map (C.Pattern.of_string ~capacity:options.C.Pipeline.capacity) r.P.patterns in
                let pats, res, _ =
                  sp "scheduler.schedule" (fun () -> S.Session.schedule twin e ~options ~patterns:pats ())
                in
                Twin_ok (pstr pats, cycles_of res.C.Eval.schedule)
            | P.Pipeline ->
                (* Session.pipeline selects and schedules on the family's
                   context; Session.schedule with no patterns is the public
                   call that does the same, so on a pipeline request this
                   one span holds both selection and scheduling. *)
                let pats, res, _ =
                  sp "scheduler.schedule" (fun () -> S.Session.schedule twin e ~options ~patterns:[] ())
                in
                ignore
                  (sp "montium.config" (fun () ->
                       C.Config_space.of_schedule ~tile:options.C.Pipeline.tile res.C.Eval.schedule));
                Twin_ok (pstr pats, cycles_of res.C.Eval.schedule)
            | P.Portfolio ->
                let o, _ = sp "select.portfolio" (fun () -> S.Session.portfolio twin e ~options) in
                let best = o.C.Portfolio.best in
                Twin_ok (pstr best.C.Portfolio.patterns, best.C.Portfolio.cycles)
            | P.Certify ->
                let cert, _ =
                  sp "select.exact" (fun () ->
                      S.Session.certify twin g ~options ?max_nodes:r.P.max_nodes ())
                in
                let ex = cert.C.Pipeline.exact in
                Acc.bump acc "exact_nodes" (float_of_int ex.C.Exact.stats.C.Exact.nodes_visited);
                Acc.bump acc "exact_evaluated" (float_of_int ex.C.Exact.stats.C.Exact.evaluated);
                Twin_ok (pstr ex.C.Exact.optimal, ex.C.Exact.optimal_cycles)
            | P.Edit ->
                let _, pats, _, res, _ =
                  sp "serve.edit" (fun () -> S.Session.edit twin g ~options ~edits:r.P.edits)
                in
                Twin_ok (pstr pats, cycles_of res.C.Eval.schedule)
            | P.Stats -> Twin_error "stats"
          with
          | Failure m | Invalid_argument m -> Twin_error m
          | C.Eval.Unschedulable _ -> Twin_error "unschedulable"
          | C.Dfg.Cycle _ -> Twin_error "cycle"))

(* ---- one request, end to end ---- *)

type expect =
  | Rows of Checker.graph  (* ok; a rows-carrying response checked on this graph *)
  | Result  (* ok; patterns and cycles only *)
  | Clean_error  (* a malformed request: "ok":false with the id echoed *)

type req = { id : string; text : string; expect : expect; warm : bool option }

type loop = {
  acc : Acc.t;
  mutable sess : S.Session.t;
  mutable twin : S.Session.t option;
  mutable cycles : int;  (* summed over a fixed amount of work *)
  mutable eval_hits : int;
  mutable eval_lookups : int;
  mutable untraced_ms : float;
  mutable traced_ms : float;
  mutable other_ms : float;
  mutable other_words : float;
}

let capacity = C.Pipeline.default_options.C.Pipeline.capacity

(* Sends one request, times it, and checks the reply: its shape, its rows
   and its warm bit.  In a traced run the twin then replays the request.
   Returns the parsed reply when it was ok. *)
let send l ~in_prefix ?(count_cycles = in_prefix) (q : req) =
  let a0 = Trace.allocated () in
  let t0 = Acc.now_ms () in
  let reply = S.Server.handle_line l.sess q.text in
  let dt = Acc.now_ms () -. t0 in
  let main_words = Trace.allocated () -. a0 in
  let acc = l.acc in
  let parsed = J.parse reply in
  let id_ok j = field "id" j = Some (J.Str q.id) in
  let outcome =
    match (parsed, q.expect) with
    | Error m, _ -> Acc.fail acc "%s: unparseable reply (%s)" q.id m; None
    | Ok j, Clean_error ->
        if bool_field "ok" j = Some false && id_ok j && field "error" j <> None then (Acc.ok acc; None)
        else (Acc.fail acc "%s: malformed request not answered with a clean error: %s" q.id reply; None)
    | Ok j, (Rows _ | Result) when bool_field "ok" j <> Some true || not (id_ok j) ->
        Acc.fail acc "%s: failed: %s" q.id reply; None
    | Ok j, expect ->
        Acc.ok acc;
        (match (expect, schedule_of j) with
        | Rows truth, Some s ->
            (match Checker.check truth ~capacity ~selected:(strings (field "patterns" j)) s with
            | [] -> ()
            | errs -> Acc.violation acc "%s: %s" q.id (String.concat "; " errs))
        | Rows _, None -> Acc.violation acc "%s: reply carries no rows" q.id
        | _ -> ());
        (match q.warm with
        | Some w when bool_field "warm" j <> Some w ->
            Acc.violation acc "%s: expected \"warm\":%b: %s" q.id w reply
        | _ -> ());
        Some j
  in
  Acc.sample acc dt;
  (match outcome with
  | Some j ->
      let h, m = cache_stats j in
      l.eval_hits <- l.eval_hits + h;
      l.eval_lookups <- l.eval_lookups + h + m;
      if count_cycles then l.cycles <- l.cycles + max 0 (snd (result_of j))
  | None -> ());
  (match l.twin with
  | None -> ()
  | Some twin ->
      let first = !Trace.next_id in
      let t1 = Acc.now_ms () in
      let tr = twin_request acc twin ~id:q.id q.text in
      let twin_ms = Acc.now_ms () -. t1 in
      l.untraced_ms <- l.untraced_ms +. dt;
      l.traced_ms <- l.traced_ms +. twin_ms;
      (* The root span of this request is the first one it opened. *)
      (match !Trace.recorded with
      | root :: _ when root.Trace.id = first ->
          l.other_ms <- l.other_ms +. dt -. (Trace.duration_ns root /. 1e6);
          if in_prefix then l.other_words <- l.other_words +. main_words -. root.Trace.alloc_words
      | _ -> ());
      match (outcome, tr) with
      | Some j, Twin_ok (pats, cycles) ->
          let pats', cycles' = result_of j in
          if pats <> pats' || cycles <> cycles' then
            Acc.violation acc "%s: traced twin gave %s / %d, reply %s / %d" q.id (String.concat "," pats)
              cycles (String.concat "," pats') cycles'
      | None, Twin_error _ -> ()
      | Some _, Twin_error m -> Acc.violation acc "%s: traced twin failed: %s" q.id m
      | None, Twin_ok _ -> (
          match q.expect with
          | Clean_error -> Acc.violation acc "%s: traced twin accepted a malformed request" q.id
          | _ -> ()));
  outcome

let new_loop ~traced =
  {
    acc = Acc.create ();
    sess = S.Session.create ();
    twin = (if traced then Some (S.Session.create ()) else None);
    cycles = 0;
    eval_hits = 0;
    eval_lookups = 0;
    untraced_ms = 0.;
    traced_ms = 0.;
    other_ms = 0.;
    other_words = 0.;
  }

(* Both sessions see the same line; only the main session's call counts
   as set-up time.  The twin stays in step. *)
let warm_up clock l text =
  let reply = Acc.in_program clock (fun () -> S.Server.handle_line l.sess text) in
  Option.iter (fun t -> ignore (S.Server.handle_line t text)) l.twin;
  match J.parse reply with
  | Ok j when bool_field "ok" j = Some true -> j
  | _ -> failwith ("setup request failed: " ^ reply)

(* ---- serve-warm ---- *)

(* huge-wide is left out: its two cold classifications (select and
   pipeline families) would add about 3.7 s to every set-up. *)
let working_set = [ "3dft"; "w5dft"; "fir8"; "iir4"; "mm232"; "adv-big"; "huge-grid" ]

(* Warm re-certify of huge-grid takes hundreds of milliseconds. *)
let no_certify = [ "huge-grid" ]

type warm = { loop : loop; deck : (string -> req) array }

(* The deck holds one request per command, graph and spelling (built-in
   name and inline DFG text, which intern to the same entry).  No record
   of real traffic exists, so no command is weighted over another.  Each
   request is sent once during set-up, so the session is warm; the seed
   only orders each pass over the deck.  Returns the seconds set-up spent
   inside the program. *)
let warm_setup ~traced =
  let l = new_loop ~traced in
  let clock = Acc.clock () in
  let deck = ref [] in
  List.iter
    (fun name ->
      let text =
        Acc.in_program clock (fun () -> C.Dfg_parse.to_string ((Option.get (C.Suite.find name)).C.Suite.build ()))
      in
      let truth = Checker.of_dfg_text text in
      let by_name = [ ("graph", str name) ] and by_text = [ ("dfg", str text) ] in
      let selected = strings (field "patterns" (warm_up clock l (line "setup" "select" by_name))) in
      let add cmd ?extra src expect =
        let make id = { id; text = line id cmd ?extra src; expect; warm = Some true } in
        ignore (warm_up clock l (make "setup").text);
        deck := make :: !deck
      in
      let extra = [ ("options", J.Obj [ ("patterns", J.Arr (List.map str selected)) ]) ] in
      List.iter
        (fun src ->
          add "select" src Result;
          add "schedule" ~extra src (Rows truth);
          add "pipeline" src (Rows truth);
          add "portfolio" src Result;
          if not (List.mem name no_certify) then add "certify" src Result)
        [ by_name; by_text ])
    working_set;
  ({ loop = l; deck = Array.of_list (List.rev !deck) }, Acc.seconds clock)

let warm_run w ~seed ~seconds =
  let l = w.loop in
  let r = Gen.rng seed in
  let classifications = S.Session.classification_count l.sess in
  let t_start = Acc.now_ms () in
  let sent = ref 0 and decks = ref 0 and heap = ref (0., 0.) and prefix_end = ref max_int in
  let deck_ms = ref [] in
  while !decks = 0 || Acc.now_ms () -. t_start < seconds *. 1000. do
    let first = l.acc.Acc.nlat in
    let order = Array.copy w.deck in
    Gen.shuffle r order;
    Array.iter
      (fun make ->
        if !decks = 0 || Acc.now_ms () -. t_start < seconds *. 1000. then begin
          incr sent;
          ignore (send l ~in_prefix:(!decks = 0) (make (Printf.sprintf "w%d" !sent)))
        end)
      order;
    if l.acc.Acc.nlat - first = Array.length order then
      deck_ms := Array.fold_left ( +. ) 0. (Array.sub l.acc.Acc.lat first (Array.length order)) :: !deck_ms;
    if !decks = 0 then begin
      heap := Acc.heap_mb ();
      prefix_end := !Trace.next_id
    end;
    Host.tick ();
    incr decks
  done;
  let after = S.Session.classification_count l.sess in
  if after <> classifications then
    Acc.violation l.acc "serve-warm classified %d graphs after setup" (after - classifications);
  let unit_s = Stats.median (Array.of_list !deck_ms) /. 1000. in
  (!heap, !prefix_end, unit_s, [ ("deck", num (Array.length w.deck)); ("decks", num !decks) ])

(* ---- serve-churn ---- *)

(* A fresh graph in both spellings and the checker's reading of it. *)
type fresh = { dfg : string; dot : string; truth : Checker.graph }

type sent = { base : fresh; opts : (string * J.t) list }

let malformed_shapes = 7

(* One block of the stream, shuffled per block: 2 malformed lines (about
   2%) and 32 each of a select on a fresh graph, a pipeline on a fresh
   graph, and an edit of a graph sent earlier.  No record of real traffic
   exists, so the three request kinds carry equal weight. *)
let block : [ `Bad | `Select | `Pipeline | `Edit ] array =
  Array.concat [ Array.make 2 `Bad; Array.make 32 `Select; Array.make 32 `Pipeline; Array.make 32 `Edit ]

type churn = { cloop : loop; pool : fresh array; pool_rng : Gen.rng }

(* Generating and printing a graph are calls into the program; reading it
   back for the checker and the DOT spelling are the benchmark's own. *)
let make_fresh ?clock r ~tag =
  let prog f = match clock with Some c -> Acc.in_program c f | None -> f () in
  let g = prog (fun () -> Gen.churn_graph r ~tag) in
  let dfg = prog (fun () -> C.Dfg_parse.to_string g) in
  let truth = Checker.of_dfg_text dfg in
  { dfg; dot = Gen.to_dot truth; truth }

(* The fresh graphs of the first epoch (at most one per request) are made
   during set-up, from a stream of their own so the request mix does not
   shift them.  Set-up
   calls nothing of the program but Random_dag and the DFG printer, so on
   this workload setup_s is input generation.  Returns the seconds spent
   inside the program. *)
let churn_setup ~seed ~traced ~prefix =
  let clock = Acc.clock () in
  let pool_rng = Gen.rng (seed lxor 0x5eed) in
  let pool = Array.init prefix (fun k -> make_fresh ~clock pool_rng ~tag:(string_of_int k)) in
  ({ cloop = new_loop ~traced; pool; pool_rng }, Acc.seconds clock)

(* Cycles are summed over this many epochs: the seed changes the graphs,
   and with them the sum, less over more of them. *)
let cycles_epochs = 10

let churn_run ch ~seed ~seconds ~prefix =
  let l = ch.cloop in
  let r = Gen.rng seed in
  let sent = ref [||] and nsent = ref 0 in
  let remember s =
    if !nsent = Array.length !sent then begin
      let a = Array.make (max 64 (2 * !nsent)) s in
      Array.blit !sent 0 a 0 !nsent;
      sent := a
    end;
    !sent.(!nsent) <- s;
    incr nsent
  in
  let fresh = ref 0 and bad = ref 0 in
  let next k kind =
    let id = Printf.sprintf "c%d" k in
    match kind with
    | `Edit when !nsent > 0 ->
        let s = !sent.(Gen.int r !nsent) in
        let d = s.base.truth in
        let n = Array.length d.Checker.names in
        let x = Printf.sprintf "x%d" k in
        let c = d.Checker.colors.(Gen.int r n) and src = Gen.int r n in
        let edits =
          J.Arr
            [
              J.Obj [ ("op", str "add_node"); ("node", str x); ("color", str (String.make 1 c)) ];
              J.Obj [ ("op", str "add_edge"); ("src", str d.Checker.names.(src)); ("dst", str x) ];
            ]
        in
        let truth =
          Checker.make
            (Array.append d.Checker.names [| x |])
            (Array.append d.Checker.colors [| c |])
            ((src, n) :: Checker.edges d)
        in
        ( { id; text = line id "edit" ~options:s.opts ~extra:[ ("edits", edits) ] [ ("dfg", str s.base.dfg) ];
            expect = Rows truth; warm = Some true },
          None )
    | `Bad when !nsent > 0 || !bad mod malformed_shapes <> 6 ->
        let shape = !bad mod malformed_shapes in
        incr bad;
        let text =
          match shape with
          | 0 -> line id "frobnicate" [ ("graph", str "3dft") ]
          | 1 -> line id "select" ~options:[ ("spam", num 1) ] [ ("graph", str "3dft") ]
          | 2 -> line id "pipeline" [ ("dfg", str "node a1 a\nedge a1 zz\n") ]
          | 3 -> line id "select" [ ("dot", str "digraph g {\n\"a1\" -> \"b2\";\n\"b2\" -> \"a1\";\n}\n") ]
          | 4 -> line id "select" [ ("graph", str "no-such-graph") ]
          | 5 -> line id "select" ~options:[ ("pdef", str "four") ] [ ("graph", str "3dft") ]
          | _ ->
              let s = !sent.(Gen.int r !nsent) in
              line id "edit" ~options:s.opts
                ~extra:[ ("edits", J.Arr [ J.Obj [ ("op", str "remove_node"); ("node", str "zz") ] ]) ]
                [ ("dfg", str s.base.dfg) ]
        in
        ({ id; text; expect = Clean_error; warm = None }, None)
    | _ ->
        let cmd, opts =
          match kind with `Pipeline -> ("pipeline", [ ("budget", num budget) ]) | _ -> ("select", [])
        in
        let f =
          if !fresh < Array.length ch.pool then ch.pool.(!fresh)
          else make_fresh ch.pool_rng ~tag:(string_of_int !fresh)
        in
        let src = if !fresh mod 2 = 0 then ("dfg", str f.dfg) else ("dot", str f.dot) in
        incr fresh;
        let expect = if cmd = "pipeline" then Rows f.truth else Result in
        (* The pipeline's family is keyed by its budget: an edit of this
           graph names the same budget so it reuses the family. *)
        ({ id; text = line id cmd [ src ]; expect; warm = Some false }, Some { base = f; opts })
  in
  let t_start = Acc.now_ms () in
  let k = ref 0 and heap = ref (0., 0.) and prefix_end = ref max_int and at_prefix = ref [] in
  let epoch_ms = ref [] in
  let order = Array.copy block in
  while !k < cycles_epochs * prefix || Acc.now_ms () -. t_start < seconds *. 1000. do
    if !k mod Array.length block = 0 then Gen.shuffle r order;
    (* Every [prefix] requests the client starts over on an empty session,
       so the session's size, and with it each request's cost, follows
       the same course in every epoch however many the run fits. *)
    if !k > 0 && !k mod prefix = 0 then begin
      l.sess <- S.Session.create ();
      l.twin <- Option.map (fun _ -> S.Session.create ()) l.twin;
      nsent := 0
    end;
    let q, fresh_graph = next !k order.(!k mod Array.length block) in
    let before = S.Session.classification_count l.sess in
    let reply = send l ~in_prefix:(!k < prefix) ~count_cycles:(!k < cycles_epochs * prefix) q in
    (match (reply, fresh_graph) with Some _, Some s -> remember s | _ -> ());
    (match q.warm with
    | Some true when S.Session.classification_count l.sess <> before ->
        Acc.violation l.acc "%s: edit raised the classification count" q.id
    | _ -> ());
    incr k;
    if !k mod prefix = 0 then
      epoch_ms := Array.fold_left ( +. ) 0. (Array.sub l.acc.Acc.lat (!k - prefix) prefix) :: !epoch_ms;
    if !k = prefix then begin
      heap := Acc.heap_mb ();
      prefix_end := !Trace.next_id;
      at_prefix :=
        [
          ("serve.graphs", float_of_int (S.Session.graph_count l.sess));
          ("serve.classifications", float_of_int (S.Session.classification_count l.sess));
        ]
    end;
    if !k mod prefix = 0 then Host.tick ()
  done;
  let unit_s = Stats.median (Array.of_list !epoch_ms) /. 1000. in
  (!heap, !prefix_end, !at_prefix, unit_s, [ ("epoch", num prefix); ("requests", num !k) ])
