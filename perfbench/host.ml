(* Host-speed reference.  The capture host is a share of a machine whose
   speed, for this kind of code, drifts by up to ~2x over minutes while a
   serial arithmetic loop keeps its speed: the drift is in the caches and
   execution resources other tenants share.  A run is too short to
   average that out, so the benchmark times a fixed piece of its own work,
   the reference loop, between units of measured work, and reports
   end-to-end times scaled to a host on which the loop takes
   [nominal_ms].  The loop shares no code with the program, so a change
   to the program moves the scaled figures as much as the wall-clock
   ones.  The wall-clock figures and the loop's median go into the
   capture's [info]. *)

(* A round figure near the loop's time on the 2-core capture host; it
   only sets the scale. *)
let nominal_ms = 5.

(* Twelve builds of a 2000-key [Map] and their discard: allocation,
   pointer chasing and comparisons, the kind of work the program does.
   Of the candidates tried (serial arithmetic, pointer chasing over 2 MB
   and 32 MB, independent arithmetic chains, a heapsort, [List.sort],
   the checker's DFG reader) it tracked the drift best on both serve
   workloads.  The builds allocate ~144K words, less than the minor
   heap, and the loop starts on an emptied minor heap, so no collection
   runs inside it and nothing it allocates is promoted: its time does
   not depend on the program's heap, and it leaves nothing in it. *)
module IM = Map.Make (Int)

let builds = 12

let maps () =
  let t = ref 0 in
  for r = 1 to builds do
    let m = ref IM.empty in
    for i = 0 to 1999 do
      m := IM.add (((i * 7919) + r) land 0xffff) i !m
    done;
    t := !t + IM.cardinal !m
  done;
  !t

(* One pass of the reference loop, in ms. *)
let reference_ms () =
  Gc.minor ();
  let t0 = Acc.now_ms () in
  ignore (Sys.opaque_identity (maps ()));
  Acc.now_ms () -. t0

(* Samples of the loop taken during the measurement. *)
let samples = ref []

(* Time the loop once.  Callers call this after each unit of work (a
   compiled graph, a deck, an epoch), never inside an operation, and at
   points fixed by the work done rather than by the clock, so that the
   program's allocations, and the collections they cause, repeat between
   runs. *)
let tick () = samples := reference_ms () :: !samples

(* [n] samples in a row, for a set-up that has no units to tick between. *)
let sample n = List.init n (fun _ -> reference_ms ())

let median l = Stats.median (Array.of_list l)

(* The factor that scales a measured time to the nominal host. *)
let factor l = nominal_ms /. median l
