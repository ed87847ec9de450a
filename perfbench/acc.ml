(* What one run accumulates: operations attempted and failed, untraced
   operation latencies, and the per-layer counts the traced run adds. *)

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (* newest first, at most [keep] *)
  mutable notes : string list;
  mutable lat : float array;  (* ms; the first [nlat] are valid *)
  mutable nlat : int;
  counts : (string, float) Hashtbl.t;
}

let keep = 20

let create () =
  {
    attempted = 0;
    failed = 0;
    failures = [];
    notes = [];
    lat = Array.make 4096 0.;
    nlat = 0;
    counts = Hashtbl.create 16;
  }

let ok t = t.attempted <- t.attempted + 1

let fail t fmt =
  Printf.ksprintf
    (fun m ->
      t.attempted <- t.attempted + 1;
      t.failed <- t.failed + 1;
      if List.length t.failures < keep then t.failures <- m :: t.failures)
    fmt

(* A check on an operation already counted by [ok]. *)
let violation t fmt =
  Printf.ksprintf
    (fun m ->
      t.failed <- t.failed + 1;
      if List.length t.failures < keep then t.failures <- m :: t.failures)
    fmt

let note t fmt = Printf.ksprintf (fun m -> t.notes <- m :: t.notes) fmt

let sample t ms =
  if t.nlat = Array.length t.lat then begin
    let a = Array.make (2 * t.nlat) 0. in
    Array.blit t.lat 0 a 0 t.nlat;
    t.lat <- a
  end;
  t.lat.(t.nlat) <- ms;
  t.nlat <- t.nlat + 1

let latencies t = Array.sub t.lat 0 t.nlat

let bump t k v =
  Hashtbl.replace t.counts k (v +. Option.value ~default:0. (Hashtbl.find_opt t.counts k))

let count t k = Option.value ~default:0. (Hashtbl.find_opt t.counts k)

let now_ms () = Int64.to_float (Mps_util.Clock.now_ns ()) /. 1e6

(* Heap after a fixed amount of work: the peak the major heap reached so
   far, and the live words left after a full major collection. *)
let heap_mb () =
  let words_mb w = float_of_int w *. float_of_int (Sys.word_size / 8) /. 1048576. in
  let peak = words_mb (Gc.quick_stat ()).Gc.top_heap_words in
  Gc.full_major ();
  (peak, words_mb (Gc.stat ()).Gc.live_words)

(* Set-up time counts only the calls into the program (corpus builds,
   serialisation, session warm-up), not the benchmark's own preparation
   of checker truths and request text. *)
type clock = { mutable program_ms : float }

let clock () = { program_ms = 0. }

let in_program c f =
  let t0 = now_ms () in
  let v = f () in
  c.program_ms <- c.program_ms +. (now_ms () -. t0);
  v

let seconds c = c.program_ms /. 1000.
