(** The service loop: line-delimited requests in, line-delimited
    responses out, warm {!Session} state in between.

    Every ok response is one line of the shape

    {v
    { "id"?: any, "ok": true, "cmd": string, ...command fields...,
      "warm": bool,
      "stats": { "eval_cache": { "hits": int, "misses": int,
                                 "session_hits": int, "session_misses": int } } }
    v}

    where [warm] says the request hit an already-cached classification,
    and [eval_cache] reports the scheduler memo cache {e for this
    request} (the delta) and {e for the session so far} (cumulative) —
    the per-request/per-session split ISSUE'd for [--stats].  Cycle
    counts that are [max_int] (unschedulable) render as [null].  A
    request that fails — unparseable line, unknown graph, invalid
    options, unschedulable pattern set — gets
    {!Protocol.error_response}'s shape, and the session survives to
    serve the next line.

    {2 Ordering and determinism}

    {!run} answers each line before it reads the next, so a client may
    wait for every reply.  Requests execute in arrival order against the
    warm session.  Intra-request parallelism (classification, exact
    search, portfolio) uses the pool's jobs-deterministic phases, so the
    full response stream — and every counter — is byte-identical for any
    [--jobs] value.

    Observability: each request runs under a ["serve.request"] span,
    with [serve.requests], [serve.errors], [serve.warm] and [serve.cold]
    counters. *)

val builtins : (string * (unit -> Core.Dfg.t)) list
(** The built-in workload table — the full {!Core.Suite} corpus, in
    corpus order — shared with the CLI's GRAPH argument so the wire
    protocol, the command line and the benches all accept the same
    names. *)

val resolve_source : Protocol.source -> (Core.Dfg.t, string) result
(** A request's graph: built-in lookup, or DFG/DOT text through
    {!Core.Dfg_parse.of_string}.  Pure. *)

val handle_line : Session.t -> string -> string
(** One request line to one response line (no trailing newline) — the
    whole protocol for callers that do their own transport (tests, the
    bench load generator). *)

val run : Session.t -> in_channel -> out_channel -> unit
(** The stdin/stdout service loop described above, until end of input.
    Blank lines are skipped; every response is flushed as soon as it is
    written. *)
