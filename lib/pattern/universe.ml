module Color = Mps_dfg.Color

module Index = Hashtbl.Make (struct
  type t = Pattern.t

  let equal = Pattern.equal
  let hash = Pattern.hash
end)

type t = {
  index : int Index.t;
  mutable pats : Pattern.t array; (* id -> pattern; live in [0, n) *)
  mutable strs : string array; (* id -> canonical spelling *)
  mutable sizes : int array; (* id -> |p| *)
  mutable csets : Color.Set.t array; (* id -> distinct-color set *)
  mutable n : int;
  (* Dominance matrix, built lazily as a flat bit matrix: row [i], bit [j]
     is set iff pattern [j] is a subpattern of pattern [i].  Bits are
     packed 32 per int ([stride] words per row) so the probe is a shift
     and a mask — a power-of-two word width keeps the index arithmetic
     free of division, which OCaml's 63-bit ints would otherwise force.
     Valid for ids < [matrix_n]. *)
  mutable matrix : int array;
  mutable matrix_n : int;
  mutable stride : int;
}

let create ?(expected = 64) () =
  let cap = max 1 expected in
  {
    index = Index.create cap;
    pats = Array.make cap Pattern.empty;
    strs = Array.make cap "";
    sizes = Array.make cap 0;
    csets = Array.make cap Color.Set.empty;
    n = 0;
    matrix = [||];
    matrix_n = 0;
    stride = 0;
  }

let cardinal u = u.n

let copy u =
  {
    u with
    index = Index.copy u.index;
    pats = Array.copy u.pats;
    strs = Array.copy u.strs;
    sizes = Array.copy u.sizes;
    csets = Array.copy u.csets;
    matrix = Array.copy u.matrix;
  }

let grow_to arr len fill =
  let a = Array.make len fill in
  Array.blit arr 0 a 0 (Array.length arr);
  a

let ensure_capacity u need =
  let cap = Array.length u.pats in
  if need > cap then begin
    let cap' = max need (2 * cap) in
    u.pats <- grow_to u.pats cap' Pattern.empty;
    u.strs <- grow_to u.strs cap' "";
    u.sizes <- grow_to u.sizes cap' 0;
    u.csets <- grow_to u.csets cap' Color.Set.empty
  end

(* Interning with the derived facts supplied, so [merge] can copy the
   memoized fields of the source universe instead of recomputing them. *)
let intern_memoized u p ~str ~size ~cset =
  match Index.find_opt u.index p with
  | Some id -> id
  | None ->
      let id = u.n in
      ensure_capacity u (id + 1);
      u.pats.(id) <- p;
      u.strs.(id) <- Lazy.force str;
      u.sizes.(id) <- size;
      u.csets.(id) <- Lazy.force cset;
      Index.add u.index p id;
      u.n <- id + 1;
      id

let intern u p =
  Pattern.Id.of_int
    (intern_memoized u p
       ~str:(lazy (Pattern.to_string p))
       ~size:(Pattern.size p)
       ~cset:(lazy (Pattern.color_set p)))

let find u p = Option.map Pattern.Id.of_int (Index.find_opt u.index p)

let check u id name =
  let i = Pattern.Id.to_int id in
  if i >= u.n then
    invalid_arg (Printf.sprintf "Universe.%s: id %d not in universe (%d ids)" name i u.n);
  i

let pattern u id = u.pats.(check u id "pattern")
let size u id = u.sizes.(check u id "size")
let color_set u id = u.csets.(check u id "color_set")
let to_string u id = u.strs.(check u id "to_string")

let padded_string u ~capacity id =
  let s = u.strs.(check u id "padded_string") in
  let len = String.length s in
  if len > capacity then
    invalid_arg
      (Printf.sprintf "Universe.padded_string: %S exceeds capacity %d" s capacity)
  else s ^ String.make (capacity - len) '-'

(* Extend the dominance matrix to cover every live id.  New ids get full
   rows; existing rows get the new columns.  The flat array is regrown (by
   doubling both the per-row stride and the row count) when the id count
   outgrows it — only O(log n) repacks over a universe's lifetime.  Old
   words copy verbatim because widening the stride only appends words. *)
let extend_matrix u =
  let need_stride = (u.n + 31) lsr 5 in
  let have_rows = if u.stride = 0 then 0 else Array.length u.matrix / u.stride in
  if need_stride > u.stride || have_rows < u.n then begin
    let stride' = max need_stride (2 * u.stride) in
    let rows' = max u.n (2 * have_rows) in
    let m' = Array.make (rows' * stride') 0 in
    for i = 0 to u.matrix_n - 1 do
      Array.blit u.matrix (i * u.stride) m' (i * stride') u.stride
    done;
    u.matrix <- m';
    u.stride <- stride'
  end;
  let old_n = u.matrix_n in
  for i = 0 to u.n - 1 do
    let base = i * u.stride in
    let lo = if i < old_n then old_n else 0 in
    for j = lo to u.n - 1 do
      if Pattern.subpattern u.pats.(j) ~of_:u.pats.(i) then begin
        let w = base + (j lsr 5) in
        u.matrix.(w) <- u.matrix.(w) lor (1 lsl (j land 31))
      end
    done
  done;
  u.matrix_n <- u.n

(* Cold path of [subpattern]: raise, or build the matrix and answer. *)
let subpattern_slow u qi pi =
  ignore (check u (Pattern.Id.of_int qi) "subpattern");
  ignore (check u (Pattern.Id.of_int pi) "subpattern");
  extend_matrix u;
  Array.unsafe_get u.matrix ((pi * u.stride) + (qi lsr 5)) land (1 lsl (qi land 31))
  <> 0

let[@inline always] subpattern u q ~of_ =
  let qi = Pattern.Id.to_int q and pi = Pattern.Id.to_int of_ in
  (* Rows already in the matrix stay correct when new ids are interned
     (dominance between two old patterns cannot change), so the fast path
     only needs both ids under [matrix_n] — in bounds by construction. *)
  if qi < u.matrix_n && pi < u.matrix_n then
    Array.unsafe_get u.matrix ((pi * u.stride) + (qi lsr 5)) land (1 lsl (qi land 31))
    <> 0
  else subpattern_slow u qi pi

let proper_subpattern u q ~of_ = subpattern u q ~of_ && not (Pattern.Id.equal q of_)

let merge ~into other =
  Array.init other.n (fun i ->
      Pattern.Id.of_int
        (intern_memoized into other.pats.(i)
           ~str:(lazy other.strs.(i))
           ~size:other.sizes.(i)
           ~cset:(lazy other.csets.(i))))

let iter f u =
  for i = 0 to u.n - 1 do
    f (Pattern.Id.of_int i) u.pats.(i)
  done

let fold f u acc =
  let acc = ref acc in
  iter (fun id p -> acc := f id p !acc) u;
  !acc

let sorted_ids u =
  let ids = Array.init u.n Pattern.Id.of_int in
  Array.sort
    (fun a b ->
      Pattern.compare u.pats.(Pattern.Id.to_int a) u.pats.(Pattern.Id.to_int b))
    ids;
  ids

let pp ppf u =
  iter (fun id _ -> Format.fprintf ppf "%a: %s@." Pattern.Id.pp id (to_string u id)) u
