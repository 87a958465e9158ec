(** The socket front of the planning daemon: accept loop, per-connection
    line framing, and graceful drain. All protocol logic lives in
    {!Service} — this module only moves bytes.

    Connections speak one JSON object per line in each direction
    ({!Protocol}). A request line longer than [max_request_bytes] is
    answered with a [too_large] error (the oversized line is consumed,
    the connection survives). When a [shutdown] request has been
    answered, the listener closes, idle connections are hung up, in-
    flight requests finish, and {!run} returns. *)

type address =
  | Unix_socket of string  (** Filesystem path. *)
  | Tcp of string * int  (** Host (numeric or name) and port. *)

val address_to_string : address -> string

val address_of_string : string -> (address, string) result
(** Accepts ["unix:PATH"], a bare path containing ['/'], ["HOST:PORT"],
    [":PORT"], or a bare port number (loopback). *)

type config = {
  workers : int;  (** Connection-worker domains (default 4). *)
  queue_depth : int option;
      (** Submitted-but-unclaimed connection bound; beyond it new
          connections are shed with an [overloaded] reply (default
          [4 * workers]). *)
  max_request_bytes : int;  (** Request-line size limit (default 8 MiB). *)
  accept_tick_s : float;
      (** How often the accept loop re-checks the drain flag (default 0.2 s). *)
  log : string -> unit;  (** One line per lifecycle event. *)
}

val default_config : config
(** Logging disabled. *)

val run : ?config:config -> Service.t -> address -> unit
(** Bind (with a [listen] backlog of 64), serve until the service
    starts draining, drain, clean up (including unlinking a Unix-socket
    path) and return. Raises [Unix.Unix_error] when the address cannot
    be bound. *)

val run_handler :
  ?config:config ->
  ?obs:Mcss_obs.Registry.t ->
  ?name:string ->
  draining:(unit -> bool) ->
  handle:(string -> Json.t) ->
  address ->
  unit
(** The same accept/line-framing/drain loop with a caller-supplied
    request handler instead of a {!Service} — the router serves its
    line protocol through this. [handle] is called on each non-empty
    request line from a pool worker and must not raise; [draining] is
    polled every [accept_tick_s] and ends the loop. [obs] receives the
    shed-connection counter; [name] prefixes log lines. *)

(** {2 Raw building blocks}

    For listeners that do not speak the line protocol (the replication
    stream). *)

val bind_listener : address -> backlog:int -> Unix.file_descr
(** Bind and listen; unlinks a stale Unix-socket path first. Raises
    [Unix.Unix_error] on bind failure. *)

val write_all : Unix.file_descr -> string -> unit
(** Write the whole string, retrying on [EINTR]. Raises
    [Unix.Unix_error] on a dead peer. *)

val send_reply : Unix.file_descr -> Json.t -> unit
(** [write_all] of one JSON line. *)
