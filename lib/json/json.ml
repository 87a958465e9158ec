type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ----- printing ----- *)

(* The primitive [Printf]'s [%g] conversions call: the same bytes,
   without interpreting a format per float. *)
external format_float : string -> float -> string = "caml_format_float"

let hex_digits = "0123456789abcdef"

(* Copies each run of plain bytes with one [add_substring]. *)
let escape_to buf s =
  Buffer.add_char buf '"';
  let n = String.length s in
  let from = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || c < ' ' then begin
      Buffer.add_substring buf s !from (i - !from);
      from := i + 1;
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c ->
          Buffer.add_string buf "\\u00";
          Buffer.add_char buf hex_digits.[Char.code c lsr 4];
          Buffer.add_char buf hex_digits.[Char.code c land 15]
    end
  done;
  Buffer.add_substring buf s !from (n - !from);
  Buffer.add_char buf '"'

(* [%.12g] prints an integral float below 1e12 as exactly its integer's
   digits. *)
let add_float buf x =
  if Float.is_integer x && x < 1e12 && not (Float.sign_bit x) then
    Buffer.add_string buf (string_of_int (int_of_float x))
  else if Float.is_finite x then Buffer.add_string buf (format_float "%.12g" x)
  else Buffer.add_string buf "null"

(* [xs], comma-separated. *)
let add_seq add buf xs =
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char buf ',';
      add buf x)
    xs

let rec add_to buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float x -> add_float buf x
  | String s -> escape_to buf s
  | List xs ->
      Buffer.add_char buf '[';
      add_seq add_to buf xs;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      add_seq add_field buf fields;
      Buffer.add_char buf '}'

and add_field buf (k, v) =
  escape_to buf k;
  Buffer.add_char buf ':';
  add_to buf v

let to_string v =
  let buf = Buffer.create 256 in
  add_to buf v;
  Buffer.contents buf

(* ----- parsing ----- *)

(* The cursor: the input, its length and the next byte's offset. *)
type cursor = { s : string; n : int; mutable pos : int }

exception Fail of int * string

let fail c msg = raise (Fail (c.pos, msg))

let rec skip_ws c =
  if c.pos < c.n then
    match String.unsafe_get c.s c.pos with
    | ' ' | '\t' | '\n' | '\r' ->
        c.pos <- c.pos + 1;
        skip_ws c
    | _ -> ()

(* Whether the next byte is [ch]. *)
let at c ch = c.pos < c.n && String.unsafe_get c.s c.pos = ch

let expect c ch = if at c ch then c.pos <- c.pos + 1 else fail c (Printf.sprintf "expected %C" ch)

let literal c word value =
  let l = String.length word in
  if c.pos + l <= c.n && String.sub c.s c.pos l = word then begin
    c.pos <- c.pos + l;
    value
  end
  else fail c (Printf.sprintf "expected %s" word)

let parse_hex4 c =
  if c.pos + 4 > c.n then fail c "truncated \\u escape";
  let h = String.sub c.s c.pos 4 in
  c.pos <- c.pos + 4;
  match int_of_string_opt ("0x" ^ h) with
  | Some code -> code
  | None -> fail c "bad \\u escape"

(* Encode a code point as UTF-8; unpaired surrogates pass through as
   the replacement-free 3-byte form, which keeps round-trips lossless
   enough for the protocol's ASCII payloads. *)
let add_utf8 buf code =
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else if code < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

(* The rest of a string whose first escape is at [c.pos], into [buf]. *)
let rec escaped_string c buf =
  if c.pos >= c.n then fail c "unterminated string";
  let ch = c.s.[c.pos] in
  c.pos <- c.pos + 1;
  match ch with
  | '"' -> Buffer.contents buf
  | '\\' -> (
      if c.pos >= c.n then fail c "unterminated escape";
      let e = c.s.[c.pos] in
      c.pos <- c.pos + 1;
      match e with
      | '"' -> Buffer.add_char buf '"'; escaped_string c buf
      | '\\' -> Buffer.add_char buf '\\'; escaped_string c buf
      | '/' -> Buffer.add_char buf '/'; escaped_string c buf
      | 'b' -> Buffer.add_char buf '\b'; escaped_string c buf
      | 'f' -> Buffer.add_char buf '\012'; escaped_string c buf
      | 'n' -> Buffer.add_char buf '\n'; escaped_string c buf
      | 'r' -> Buffer.add_char buf '\r'; escaped_string c buf
      | 't' -> Buffer.add_char buf '\t'; escaped_string c buf
      | 'u' ->
          let code = parse_hex4 c in
          let code =
            (* Surrogate pair *)
            if code >= 0xD800 && code <= 0xDBFF && c.pos + 1 < c.n
               && c.s.[c.pos] = '\\' && c.s.[c.pos + 1] = 'u'
            then begin
              c.pos <- c.pos + 2;
              let low = parse_hex4 c in
              if low >= 0xDC00 && low <= 0xDFFF then
                0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00)
              else fail c "unpaired surrogate"
            end
            else code
          in
          add_utf8 buf code;
          escaped_string c buf
      | _ -> fail c "bad escape")
  | ch -> Buffer.add_char buf ch; escaped_string c buf

(* A string with no escape before its closing quote is one [String.sub]:
   scan from [i] for the quote, or for the first escape. *)
let rec plain_string c start i =
  if i >= c.n then begin
    c.pos <- c.n;
    fail c "unterminated string"
  end
  else
    match String.unsafe_get c.s i with
    | '"' ->
        c.pos <- i + 1;
        String.sub c.s start (i - start)
    | '\\' ->
        let buf = Buffer.create (i - start + 16) in
        Buffer.add_substring buf c.s start (i - start);
        c.pos <- i;
        escaped_string c buf
    | _ -> plain_string c start (i + 1)

let parse_string c =
  expect c '"';
  plain_string c c.pos c.pos

let is_num_char = function
  | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
  | _ -> false

let parse_number c =
  let start = c.pos in
  while c.pos < c.n && is_num_char (String.unsafe_get c.s c.pos) do
    c.pos <- c.pos + 1
  done;
  let text = String.sub c.s start (c.pos - start) in
  match int_of_string_opt text with
  | Some i -> Int i
  | None -> (
      match float_of_string_opt text with
      | Some x -> Float x
      | None -> fail c (Printf.sprintf "bad number %S" text))

let rec parse_value c =
  skip_ws c;
  if c.pos >= c.n then fail c "unexpected end of input";
  match String.unsafe_get c.s c.pos with
  | '{' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if at c '}' then begin
        c.pos <- c.pos + 1;
        Obj []
      end
      else Obj (parse_fields c [])
  | '[' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if at c ']' then begin
        c.pos <- c.pos + 1;
        List []
      end
      else List (parse_items c [])
  | '"' -> String (parse_string c)
  | 't' -> literal c "true" (Bool true)
  | 'f' -> literal c "false" (Bool false)
  | 'n' -> literal c "null" Null
  | _ -> parse_number c

and parse_fields c acc =
  skip_ws c;
  let k = parse_string c in
  skip_ws c;
  expect c ':';
  let v = parse_value c in
  skip_ws c;
  if at c ',' then begin
    c.pos <- c.pos + 1;
    parse_fields c ((k, v) :: acc)
  end
  else if at c '}' then begin
    c.pos <- c.pos + 1;
    List.rev ((k, v) :: acc)
  end
  else fail c "expected ',' or '}'"

and parse_items c acc =
  let v = parse_value c in
  skip_ws c;
  if at c ',' then begin
    c.pos <- c.pos + 1;
    parse_items c (v :: acc)
  end
  else if at c ']' then begin
    c.pos <- c.pos + 1;
    List.rev (v :: acc)
  end
  else fail c "expected ',' or ']'"

let parse s =
  let c = { s; n = String.length s; pos = 0 } in
  match
    let v = parse_value c in
    skip_ws c;
    if c.pos <> c.n then fail c "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Fail (at, msg) ->
      Error (Printf.sprintf "JSON parse error at byte %d: %s" at msg)

(* ----- accessors ----- *)

let rec assoc key = function
  | [] -> None
  | (k, v) :: rest -> if String.equal k key then Some v else assoc key rest

let member key = function Obj fields -> assoc key fields | _ -> None
let to_string_opt = function String s -> Some s | _ -> None

let to_int_opt = function
  | Int i -> Some i
  | Float x when Float.is_integer x && Float.abs x <= 1e15 -> Some (int_of_float x)
  | _ -> None

let to_float_opt = function
  | Float x -> Some x
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_bool_opt = function Bool b -> Some b | _ -> None
let to_list_opt = function List xs -> Some xs | _ -> None
