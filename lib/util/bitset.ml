(* Bits are packed into OCaml native ints, word_bits per array cell.  The
   last word's unused high bits are kept at zero so cardinal/equal can work
   word-wise without masking. *)

let word_bits = Sys.int_size

type t = { words : int array; universe : int }

let words_for n = (n + word_bits - 1) / word_bits

let create universe =
  if universe < 0 then invalid_arg "Bitset.create: negative universe";
  { words = Array.make (words_for universe) 0; universe }

let universe t = t.universe

let full n =
  let t = create n in
  let nwords = Array.length t.words in
  if nwords > 0 then begin
    Array.fill t.words 0 nwords (-1);
    let rem = n mod word_bits in
    if rem <> 0 then t.words.(nwords - 1) <- (1 lsl rem) - 1
  end;
  t

let copy t = { t with words = Array.copy t.words }
let clear t = Array.fill t.words 0 (Array.length t.words) 0

let check t i =
  if i < 0 || i >= t.universe then
    invalid_arg (Printf.sprintf "Bitset: element %d out of universe [0,%d)" i t.universe)

let add t i =
  check t i;
  t.words.(i / word_bits) <- t.words.(i / word_bits) lor (1 lsl (i mod word_bits))

let remove t i =
  check t i;
  t.words.(i / word_bits) <- t.words.(i / word_bits) land lnot (1 lsl (i mod word_bits))

let mem t i =
  check t i;
  t.words.(i / word_bits) land (1 lsl (i mod word_bits)) <> 0

let popcount x =
  let rec go x acc = if x = 0 then acc else go (x land (x - 1)) (acc + 1) in
  go x 0

let cardinal t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words
let is_empty t = Array.for_all (fun w -> w = 0) t.words

let same_universe a b =
  if a.universe <> b.universe then invalid_arg "Bitset: universe mismatch"

let equal a b =
  same_universe a b;
  a.words = b.words

let inter_into ~dst src =
  same_universe dst src;
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- dst.words.(i) land src.words.(i)
  done

let inter_of ~dst a b =
  same_universe dst a;
  same_universe dst b;
  for i = 0 to Array.length dst.words - 1 do
    Array.unsafe_set dst.words i
      (Array.unsafe_get a.words i land Array.unsafe_get b.words i)
  done

let union_into ~dst src =
  same_universe dst src;
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- dst.words.(i) lor src.words.(i)
  done

let diff_into ~dst src =
  same_universe dst src;
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- dst.words.(i) land lnot src.words.(i)
  done

let inter a b =
  let r = copy a in
  inter_into ~dst:r b;
  r

let union a b =
  let r = copy a in
  union_into ~dst:r b;
  r

let diff a b =
  let r = copy a in
  diff_into ~dst:r b;
  r

let subset a b =
  same_universe a b;
  let ok = ref true in
  for i = 0 to Array.length a.words - 1 do
    if a.words.(i) land lnot b.words.(i) <> 0 then ok := false
  done;
  !ok

(* Index of the least significant set bit of a nonzero word, by halving:
   six masks and shifts, no loop over single bits. *)
let lowest_bit w =
  let w = ref (w land -w) and i = ref 0 in
  if !w land 0xFFFFFFFF = 0 then begin w := !w lsr 32; i := 32 end;
  if !w land 0xFFFF = 0 then begin w := !w lsr 16; i := !i + 16 end;
  if !w land 0xFF = 0 then begin w := !w lsr 8; i := !i + 8 end;
  if !w land 0xF = 0 then begin w := !w lsr 4; i := !i + 4 end;
  if !w land 0x3 = 0 then begin w := !w lsr 2; i := !i + 2 end;
  if !w land 0x1 = 0 then !i + 1 else !i

let next_from t i =
  if i >= t.universe then -1
  else begin
    let i = if i < 0 then 0 else i in
    let nwords = Array.length t.words in
    let wi = ref (i / word_bits) in
    let w = ref (Array.unsafe_get t.words !wi land (-1 lsl (i mod word_bits))) in
    while !w = 0 && !wi < nwords - 1 do
      incr wi;
      w := Array.unsafe_get t.words !wi
    done;
    if !w = 0 then -1 else (!wi * word_bits) + lowest_bit !w
  end

let first_from t i = match next_from t i with -1 -> None | j -> Some j

let iter f t =
  let rec go i =
    match next_from t i with
    | -1 -> ()
    | j ->
        f j;
        go (j + 1)
  in
  go 0

let fold f t acc =
  let acc = ref acc in
  iter (fun i -> acc := f i !acc) t;
  !acc

let elements t = List.rev (fold (fun i acc -> i :: acc) t [])

let of_list n elems =
  let t = create n in
  List.iter (add t) elems;
  t

let pp ppf t =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
       Format.pp_print_int)
    (elements t)
