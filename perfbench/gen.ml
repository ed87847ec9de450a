(* Seeded input generators.  Every choice the benchmark makes about its
   inputs is drawn from the [--seed] argument through a private splitmix64
   stream.  The churn graphs themselves come from the program's
   [Random_dag], seeded from that stream, so the same seed gives the same
   graphs for as long as [Random_dag] does not change. *)

type rng = { mutable state : int64 }

let rng seed = { state = Int64.(add (of_int seed) 0x9E3779B97F4A7C15L) }

let next r =
  r.state <- Int64.add r.state 0x9E3779B97F4A7C15L;
  let z = r.state in
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let int r bound =
  if bound <= 0 then invalid_arg "Gen.int";
  Int64.(to_int (unsigned_rem (next r) (of_int bound)))

let float r = Int64.(to_float (shift_right_logical (next r) 11)) /. 9007199254740992.

let shuffle r a =
  for i = Array.length a - 1 downto 1 do
    let j = int r (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* ---- churn graphs: the program's Random_dag, tagged ---- *)

module C = Core

(* A graph from [Random_dag.generate] (its default edge probability,
   locality and 3DFT-like palette; 4-7 layers of up to 3-5 nodes, so a
   cold classification costs milliseconds) with every node renamed to
   carry [tag].  The tag makes every generated graph textually unique, so
   no two churn requests intern to one session entry.  Names start with
   their colour: the DOT reader takes a node's colour from there. *)
let churn_graph r ~tag =
  let params =
    { C.Random_dag.default_params with C.Random_dag.layers = 4 + int r 4; width = 3 + int r 3 }
  in
  let g = C.Random_dag.generate ~params ~seed:(int r 0x3fffffff) () in
  let name v = Printf.sprintf "%s%s_%d" (C.Color.to_string (C.Dfg.color g v)) tag v in
  C.Dfg.of_alist
    (List.map (fun v -> (name v, C.Dfg.color g v)) (C.Dfg.nodes g))
    (List.map (fun (s, d) -> (name s, name d)) (C.Dfg.edges g))

(* Nodes are declared before any edge, in id order, so the DOT reading
   assigns the same ids as the native text and both spellings intern to
   one session entry. *)
let to_dot (g : Checker.graph) =
  let names = g.Checker.names in
  let b = Buffer.create 1024 in
  Buffer.add_string b "digraph g {\n";
  Array.iter (fun n -> Printf.bprintf b "  \"%s\";\n" n) names;
  List.iter
    (fun (s, t) -> Printf.bprintf b "  \"%s\" -> \"%s\";\n" names.(s) names.(t))
    (Checker.edges g);
  Buffer.add_string b "}\n";
  Buffer.contents b
