module Json = Mps_util.Json

type t = { ic : in_channel; oc : out_channel }

(* A write to a peer that hung up must surface as an EPIPE [Sys_error],
   not a fatal SIGPIPE.  Idempotent, and a no-op on platforms without the
   signal. *)
let ignore_sigpipe () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ | Sys_error _ -> ()

let of_fd fd =
  { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let listen ~path =
  ignore_sigpipe ();
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 16;
  fd

let accept fd =
  let conn, _ = Unix.accept fd in
  of_fd conn

let connect ~path =
  ignore_sigpipe ();
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  of_fd fd

let channels t = (t.ic, t.oc)

let shutdown_send t =
  flush t.oc;
  try Unix.shutdown (Unix.descr_of_out_channel t.oc) Unix.SHUTDOWN_SEND
  with Unix.Unix_error _ | Invalid_argument _ -> ()

let recv t =
  match input_line t.ic with
  | exception End_of_file -> Error "unexpected end of stream"
  | exception Sys_error e -> Error ("read failed: " ^ e)
  | line -> (
      match Json.parse line with
      | Ok j -> Ok j
      | Error e -> Error ("bad frame: " ^ e))

(* Both channels share one fd, so the second close may report EBADF,
   which is exactly the already-closed case.  Closing an already closed
   channel is a no-op, so a repeated [close] is too. *)
let close t =
  (try close_out t.oc with Sys_error _ -> ());
  try close_in t.ic with Sys_error _ -> ()
