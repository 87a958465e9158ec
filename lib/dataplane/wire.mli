(** Byte-level helpers for the dataplane's line protocol: the broker
    processes speak the same one-JSON-object-per-line framing as the
    planning daemon ({!Mcss_serve.Protocol}), plus two dataplane-native
    line shapes that never transit the planning servers:

    {v
    {"req":"pub","e":[[TOPIC,SEQ,PUB_NS],...]}        publisher -> broker
    {"req":"attach"}  (or "subs":[S,...])             sink      -> broker
    {"t":TOPIC,"n":SEQ,"p":PUB_NS,"s":[S,...]}        broker    -> sink
    {"req":"kill"}                                    chaos     -> broker
    v}

    [SEQ] is the publisher's global event sequence number and [PUB_NS]
    the {!Mcss_obs.Clock} stamp taken at send time; both ride through
    the broker untouched, so a sink can deduplicate re-home duplicates
    by (SEQ, subscriber) and measure end-to-end latency against its own
    clock (valid on one machine, which is where the dataplane runs). *)

module Json := Mcss_json.Json

type event = { topic : int; seq : int; pub_ns : int }
(** One publication as it rides the wire. *)

type delivery = { topic : int; seq : int; pub_ns : int; subscribers : int list }
(** One fan-out line: the broker delivered event [seq] of [topic] to
    [subscribers] (the locally-homed pairs with an attached sink). *)

val pub_line : event list -> string
(** The publisher's batch request, newline-terminated. *)

val pub_request : event list -> Json.t
(** The same request as a JSON value (for {!Mcss_serve.Client}). *)

val events_of : Json.t -> (event list, string) result
(** Decode the ["e"] field of a pub request. *)

val delivery_line : delivery -> string
val delivery_of : Json.t -> (delivery, string) result

val connect : Mcss_serve.Server.address -> Unix.file_descr
(** Blocking connect to a broker (or planning) socket. Raises
    [Unix.Unix_error] when the peer is not there. *)

(** Incremental line reader over a file descriptor that may be in
    non-blocking mode: bytes accumulate across reads, lines pop out as
    they complete. *)
module Reader : sig
  type t

  val create : Unix.file_descr -> t

  val read_lines : t -> [ `Lines of string list | `Eof | `Again ]
  (** One [read] syscall's worth of progress: complete lines received
      (possibly none — partial data stays buffered, yielding
      [`Lines []]), end of stream, or [EAGAIN]/[EINTR]. *)
end
