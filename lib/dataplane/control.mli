(** Client-side dataplane control: one-shot [drain] / [rehome] /
    [ledger] / [health] / [shutdown] exchanges with a broker socket,
    plus the raw [kill] line. Built on {!Mcss_serve.Client}, so every
    call connects fresh — brokers are cheap to talk to and the caller
    never holds a stale connection to a killed one. *)

module Json := Mcss_json.Json
module Server := Mcss_serve.Server

val health : Server.address -> (Json.t, string) result
val drain : Server.address -> (unit, string) result

val rehome :
  Server.address ->
  add:(int * int) list ->
  remove:(int * int) list ->
  (Json.t, string) result
(** The reply carries [added] / [already_present] / [removed] /
    [absent] / [pairs]. [Error] covers transport failures {e and} error
    replies. *)

val ledger : Server.address -> (Ledger.t, string) result

val shutdown : Server.address -> (unit, string) result
(** Ask for a graceful drain-and-exit; returns once the broker acked
    (it flushes sinks and exits on its own afterwards). *)

val kill : Server.address -> unit
(** Best effort: connect, write [{"req":"kill"}], close. Errors are
    swallowed — a broker that is already gone is already killed. *)
