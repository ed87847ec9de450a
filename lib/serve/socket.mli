(** The Unix-domain socket transport behind [mpsched serve --listen] and
    [--connect]: one {!t} is one connection, carrying the same
    line-delimited JSON as [--stdin].

    SIGPIPE is set to ignore on the first {!listen} or {!connect}, so a
    write to a peer that hung up surfaces as a [Sys_error] instead of
    killing the process. *)

type t

val listen : path:string -> Unix.file_descr
(** Binds and listens on a socket at [path], unlinking a stale file there
    first.  @raise Unix.Unix_error on bind failure. *)

val accept : Unix.file_descr -> t
(** Blocks for one connection and wraps it. *)

val connect : path:string -> t
(** Client side: connects to a listening socket.
    @raise Unix.Unix_error when nothing listens at [path]. *)

val channels : t -> in_channel * out_channel
(** The connection's channel pair, for {!Server.run} or a client's raw
    request lines. *)

val shutdown_send : t -> unit
(** Half-close: flush and deliver EOF to the peer while keeping the read
    side open — how a pipelined client says "no more requests" and still
    collects every response. *)

val recv : t -> (Mps_util.Json.t, string) result
(** The next line parsed as JSON; [Error] on end of stream or a line that
    does not parse. *)

val close : t -> unit
(** Flushes and closes both directions.  Idempotent. *)
