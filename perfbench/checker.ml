(* Output checker.  It shares no code with the scheduler: it reads the
   graph from the same text the program was given (adding an edit's node
   and edge itself), computes reachability itself, and checks a schedule
   given only as rows of node names and row pattern spellings. *)

type graph = {
  names : string array;
  colors : char array;
  preds : int list array;
  index : (string, int) Hashtbl.t;
  reach : Bytes.t;  (* byte u * n + v is 1 when v is reachable from u *)
}

(* Transitive closure by one depth-first walk per node. *)
let reachability n preds =
  let succs = Array.make n [] in
  Array.iteri (fun d ps -> List.iter (fun s -> succs.(s) <- d :: succs.(s)) ps) preds;
  let reach = Bytes.make (n * n) '\000' in
  for u = 0 to n - 1 do
    let rec visit v =
      List.iter
        (fun w ->
          if Bytes.get reach ((u * n) + w) = '\000' then begin
            Bytes.set reach ((u * n) + w) '\001';
            visit w
          end)
        succs.(v)
    in
    visit u
  done;
  reach

let make names colors edges =
  let n = Array.length names in
  let index = Hashtbl.create n in
  Array.iteri (fun i nm -> Hashtbl.replace index nm i) names;
  let preds = Array.make n [] in
  List.iter (fun (s, d) -> preds.(d) <- s :: preds.(d)) edges;
  { names; colors; preds; index; reach = reachability n preds }

(* The edges as (src, dst) pairs, sorted. *)
let edges g =
  List.sort compare (List.concat (List.mapi (fun d ps -> List.map (fun s -> (s, d)) ps) (Array.to_list g.preds)))

let reaches g u v = Bytes.get g.reach ((u * Array.length g.names) + v) = '\001'

(* The native DFG text: "node <name> <color>" and "edge <src> <dst>"
   lines, '#' comments, blank lines ignored. *)
let of_dfg_text text =
  let nodes = ref [] and edges = ref [] and count = ref 0 in
  let index = Hashtbl.create 64 in
  List.iter
    (fun raw ->
      let line = match String.index_opt raw '#' with Some i -> String.sub raw 0 i | None -> raw in
      match List.filter (( <> ) "") (String.split_on_char ' ' (String.trim line)) with
      | [] -> ()
      | [ "node"; name; c ] when String.length c = 1 ->
          Hashtbl.replace index name !count;
          incr count;
          nodes := (name, c.[0]) :: !nodes
      | [ "edge"; s; d ] -> edges := (s, d) :: !edges
      | _ -> failwith ("checker: unreadable graph line: " ^ raw))
    (String.split_on_char '\n' text);
  let nodes = Array.of_list (List.rev !nodes) in
  let id nm =
    match Hashtbl.find_opt index nm with
    | Some i -> i
    | None -> failwith ("checker: edge names unknown node " ^ nm)
  in
  make (Array.map fst nodes) (Array.map snd nodes)
    (List.rev_map (fun (s, d) -> (id s, id d)) !edges)

(* A pattern spelling as a sorted colour bag; '-' pads dummies. *)
let bag s =
  let cs = List.filter (( <> ) '-') (List.init (String.length s) (String.get s)) in
  List.sort Char.compare cs

let rec sub_bag small big =
  match (small, big) with
  | [], _ -> true
  | _, [] -> false
  | x :: xs, y :: ys ->
      if x = y then sub_bag xs ys else if Char.compare x y > 0 then sub_bag small ys else false

type schedule = {
  rows : string list list;  (* node names, one list per cycle *)
  row_patterns : string list;
  cycles : int;
}

(* Every violation found, as one line each; [] means the schedule is a
   valid multi-pattern schedule of [g] under [capacity] and [selected]. *)
let check g ~capacity ~selected s =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
  let n = Array.length g.names in
  let row_of = Array.make n (-1) in
  let rows = Array.of_list s.rows in
  Array.iteri
    (fun r names ->
      List.iter
        (fun nm ->
          match Hashtbl.find_opt g.index nm with
          | None -> err "row %d names unknown node %s" r nm
          | Some i ->
              if row_of.(i) >= 0 then err "node %s appears in rows %d and %d" nm row_of.(i) r
              else row_of.(i) <- r)
        names)
    rows;
  Array.iteri (fun i r -> if r < 0 then err "node %s is never scheduled" g.names.(i)) row_of;
  Array.iteri
    (fun i ps ->
      List.iter
        (fun p ->
          if row_of.(i) >= 0 && row_of.(p) >= 0 && row_of.(p) >= row_of.(i) then
            err "node %s (row %d) does not follow its predecessor %s (row %d)" g.names.(i)
              row_of.(i) g.names.(p) row_of.(p))
        ps)
    g.preds;
  let selected_bags = List.map bag selected in
  let pats = Array.of_list s.row_patterns in
  if Array.length pats <> Array.length rows then
    err "%d rows but %d row patterns" (Array.length rows) (Array.length pats);
  Array.iteri
    (fun r names ->
      let ids = List.filter_map (Hashtbl.find_opt g.index) names in
      List.iter
        (fun u ->
          List.iter
            (fun v -> if u <> v && reaches g u v then err "row %d holds %s before %s" r g.names.(u) g.names.(v))
            ids)
        ids;
      if List.length names > capacity then
        err "row %d has %d operations, capacity is %d" r (List.length names) capacity;
      if r < Array.length pats then begin
        let colors = List.sort Char.compare (List.map (fun i -> g.colors.(i)) ids) in
        let p = bag pats.(r) in
        if not (sub_bag colors p) then err "row %d colours are not a sub-bag of its pattern %s" r pats.(r);
        if not (List.mem p selected_bags) then err "row %d pattern %s was not selected" r pats.(r)
      end)
    rows;
  if s.cycles <> Array.length rows then err "cycles %d but %d rows" s.cycles (Array.length rows);
  List.rev !errs
