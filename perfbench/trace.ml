(* In-memory spans recorded around calls into the program's layers.

   A span has a name, the operation it belongs to (a graph name or a
   request id), start and end on the monotonic clock, the span that was
   open when it started, and the words allocated while it was open.  Spans
   are kept in memory and written out once, when the run ends. *)

type span = {
  id : int;  (* start order *)
  name : string;
  op : string;
  parent : int;  (* id of the enclosing span, -1 at top level *)
  start_ns : int64;
  stop_ns : int64;
  alloc_words : float;
}

let enabled = ref false
let recorded : span list ref = ref []  (* newest end first *)
let next_id = ref 0
let stack : int list ref = ref []

(* Words allocated so far by this domain: minor allocations plus direct
   major allocations (promoted words are already counted as minor). *)
let allocated () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let with_span ~op name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let a0 = allocated () in
    let t0 = Mps_util.Clock.now_ns () in
    let finish () =
      let t1 = Mps_util.Clock.now_ns () in
      let a1 = allocated () in
      stack := List.tl !stack;
      recorded :=
        { id; name; op; parent; start_ns = t0; stop_ns = t1; alloc_words = a1 -. a0 }
        :: !recorded
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let spans () = List.rev !recorded
let duration_ns s = Int64.to_float (Int64.sub s.stop_ns s.start_ns)

type total = {
  mutable self_ns : float;
  mutable self_words : float;
  mutable incl_ns : float;
  mutable n : int;
}

(* Per span name: self time (duration minus the time its direct children
   cover), self allocation, total duration, and how many spans carried
   the name.  [keep]
   selects the spans counted, e.g. those of a fixed prefix of the run. *)
let totals ?(keep = fun _ -> true) () =
  let all = spans () in
  let child_ns = Hashtbl.create 256 and child_words = Hashtbl.create 256 in
  let bump tbl k v =
    Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))
  in
  List.iter
    (fun s ->
      if s.parent >= 0 then begin
        bump child_ns s.parent (duration_ns s);
        bump child_words s.parent s.alloc_words
      end)
    all;
  let out = Hashtbl.create 32 in
  List.iter
    (fun s ->
      if keep s then begin
        let t =
          match Hashtbl.find_opt out s.name with
          | Some t -> t
          | None ->
              let t = { self_ns = 0.; self_words = 0.; incl_ns = 0.; n = 0 } in
              Hashtbl.replace out s.name t;
              t
        in
        let get tbl = Option.value ~default:0. (Hashtbl.find_opt tbl s.id) in
        t.self_ns <- t.self_ns +. duration_ns s -. get child_ns;
        t.incl_ns <- t.incl_ns +. duration_ns s;
        t.self_words <- t.self_words +. s.alloc_words -. get child_words;
        t.n <- t.n + 1
      end)
    all;
  out

(* One JSON object per line, in end order. *)
let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc
        (Mps_util.Json.to_line
           (Mps_util.Json.Obj
              [
                ("id", Num (float_of_int s.id));
                ("name", Str s.name);
                ("op", Str s.op);
                ("parent", Num (float_of_int s.parent));
                ("start_ns", Str (Int64.to_string s.start_ns));
                ("end_ns", Str (Int64.to_string s.stop_ns));
                ("alloc_words", Num s.alloc_words);
              ]));
      output_char oc '\n')
    (spans ());
  close_out oc
