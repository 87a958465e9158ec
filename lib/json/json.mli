(** The repository's one JSON codec: a minimal value type with a strict
    parser and printer, and no dependencies. Every JSON document the
    project emits — protocol replies, journal records, the obs JSONL
    sink, the elastic ledger, the pump report, the BENCH_*.json files —
    is a [t] rendered by {!to_string}, so string escaping and number
    rendering live only here.

    The parser accepts RFC 8259 JSON with two deliberate relaxations:
    numbers are read with [float_of_string] (so [1e999] parses to
    [infinity] rather than erroring), and top-level values other than
    objects/arrays are allowed. The printer always emits valid JSON on
    one line (non-finite floats become [null]), so a printed value can
    be framed by a single ['\n'].

    Floats print at 12 significant digits ([%.12g]), so [parse
    (to_string v)] returns [v] only up to that rounding, and a float
    whose rendering has no fraction or exponent (e.g. [3.]) reparses as
    an [Int]. Callers that need a float back bit-exactly carry it as a
    [%.17g] string instead: the journal records of [Mcss_serve.Record]
    do this for every parameter that feeds a plan-cache key. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** Fields in insertion order; duplicates kept. *)

val parse : string -> (t, string) result
(** Parse one JSON value; [Error] carries a message with the byte
    offset. Trailing whitespace is allowed, trailing garbage is not. *)

val to_string : t -> string
(** One-line rendering; strings are escaped per RFC 8259. *)

(** {2 Accessors}

    All return [None] on a type or shape mismatch instead of raising, so
    request decoding can fold them with [Option.bind]. *)

val member : string -> t -> t option
(** First field with that name, when the value is an object. *)

val to_string_opt : t -> string option
val to_int_opt : t -> int option
(** Accepts [Int] and integral [Float]s. *)

val to_float_opt : t -> float option
(** Accepts [Float] and [Int]. *)

val to_bool_opt : t -> bool option
val to_list_opt : t -> t list option
