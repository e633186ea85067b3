type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ---------------- printing ---------------- *)

(* ---- float rendering ----
   Fixed-point decimals only: never exponent notation (which some
   downstream trace consumers reject and which breaks golden diffs when
   the crossover point differs), never locale-dependent separators
   (OCaml's printf is locale-independent), and always containing a '.'
   so a reparse yields a Float, not an Int. The mantissa is the shortest
   of %.15g/%.16g/%.17g that round-trips, so values like 0.0002 print as
   "0.0002", not "0.00020000000000000001". *)

let expand_exponent s =
  (* "d[.ddd]e±EE" -> plain decimal notation *)
  match
    String.index_opt s 'e'
    |> (function None -> String.index_opt s 'E' | some -> some)
  with
  | None -> s
  | Some epos ->
      let mantissa = String.sub s 0 epos in
      let exp =
        int_of_string (String.sub s (epos + 1) (String.length s - epos - 1))
      in
      let sign, mantissa =
        if mantissa.[0] = '-' then
          ("-", String.sub mantissa 1 (String.length mantissa - 1))
        else ("", mantissa)
      in
      let int_part, frac_part =
        match String.index_opt mantissa '.' with
        | None -> (mantissa, "")
        | Some dot ->
            ( String.sub mantissa 0 dot,
              String.sub mantissa (dot + 1) (String.length mantissa - dot - 1)
            )
      in
      let digits = int_part ^ frac_part in
      (* decimal point sits after [point] digits of [digits] *)
      let point = String.length int_part + exp in
      let buf = Buffer.create (String.length digits + abs exp + 4) in
      Buffer.add_string buf sign;
      if point <= 0 then begin
        Buffer.add_string buf "0.";
        Buffer.add_string buf (String.make (-point) '0');
        Buffer.add_string buf digits
      end
      else if point >= String.length digits then begin
        Buffer.add_string buf digits;
        Buffer.add_string buf (String.make (point - String.length digits) '0');
        Buffer.add_string buf ".0"
      end
      else begin
        Buffer.add_string buf (String.sub digits 0 point);
        Buffer.add_char buf '.';
        Buffer.add_string buf
          (String.sub digits point (String.length digits - point))
      end;
      Buffer.contents buf

let float_to_string f =
  if f <> f then "null" (* nan: not representable in JSON *)
  else if f = infinity || f = neg_infinity then "null"
  else if Float.is_integer f && Float.abs f < 1e16 then
    Printf.sprintf "%.1f" f
  else
    let shortest =
      let s = Printf.sprintf "%.15g" f in
      if float_of_string s = f then s
      else
        let s = Printf.sprintf "%.16g" f in
        if float_of_string s = f then s else Printf.sprintf "%.17g" f
    in
    let fixed = expand_exponent shortest in
    if String.contains fixed '.' then fixed else fixed ^ ".0"

(* Canonical fixed-point floats for golden artifacts: round to a decimal
   grid before wrapping, so accumulated binary noise (14.360000000000001)
   never reaches a baseline diff. Rounding to [decimals] places and then
   printing the shortest round-trip representation always yields the
   short decimal itself. *)
let fixed ?(decimals = 6) f =
  if f <> f || f = infinity || f = neg_infinity then Float f
  else
    let scale = 10.0 ** float_of_int decimals in
    Float (Float.round (f *. scale) /. scale)

(* Unescaped runs are copied whole; only the bytes that need an escape
   are rendered one at a time. *)
let escape_string buf s =
  Buffer.add_char buf '"';
  let n = String.length s in
  let rec go run i =
    if i = n then Buffer.add_substring buf s run (i - run)
    else
      let c = String.unsafe_get s i in
      if c <> '"' && c <> '\\' && Char.code c >= 0x20 then go run (i + 1)
      else begin
        Buffer.add_substring buf s run (i - run);
        (match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c)));
        go (i + 1) (i + 1)
      end
  in
  go 0 0;
  Buffer.add_char buf '"'

let to_string ?(indent = 0) t =
  let buf = Buffer.create 256 in
  let pad depth =
    if indent > 0 then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (depth * indent) ' ')
    end
  in
  let rec go depth = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_to_string f)
    | String s -> escape_string buf s
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ',';
            pad (depth + 1);
            go (depth + 1) item)
          items;
        pad depth;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            pad (depth + 1);
            escape_string buf k;
            Buffer.add_char buf ':';
            if indent > 0 then Buffer.add_char buf ' ';
            go (depth + 1) v)
          fields;
        pad depth;
        Buffer.add_char buf '}'
  in
  go 0 t;
  Buffer.contents buf

(* ---------------- parsing ---------------- *)

type state = { src : string; mutable pos : int }

exception Parse_error of string

let fail st msg =
  raise (Parse_error (Printf.sprintf "at offset %d: %s" st.pos msg))

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let skip_ws st =
  let n = String.length st.src in
  while
    st.pos < n
    && match String.unsafe_get st.src st.pos with
       | ' ' | '\t' | '\n' | '\r' -> true
       | _ -> false
  do
    advance st
  done

let expect st c =
  match peek st with
  | Some x when x = c -> advance st
  | Some x -> fail st (Printf.sprintf "expected %C, got %C" c x)
  | None -> fail st (Printf.sprintf "expected %C, got end of input" c)

let literal st word value =
  let n = String.length word in
  if
    st.pos + n <= String.length st.src
    && String.sub st.src st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st (Printf.sprintf "expected %s" word)

let is_hex c =
  (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

(* exactly four hex digits; [int_of_string] alone would also take OCaml
   literal syntax such as the digit separator in "0_41" *)
let parse_hex4 st =
  if st.pos + 4 > String.length st.src then fail st "truncated \\u escape";
  let h = String.sub st.src st.pos 4 in
  st.pos <- st.pos + 4;
  if String.for_all is_hex h then int_of_string ("0x" ^ h)
  else fail st ("bad \\u escape " ^ h)

let utf8_of_code buf code =
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

(* the code point of a [\u] escape whose "\\u" is already consumed: a
   high surrogate must be followed by an escaped low one, and the pair
   decodes to one supplementary code point; a lone surrogate is refused *)
let parse_unicode_escape st =
  let code = parse_hex4 st in
  let after = st.pos in
  let lone () =
    st.pos <- after;
    fail st ("bad \\u escape " ^ String.sub st.src (after - 4) 4)
  in
  let is_low c = c >= 0xDC00 && c <= 0xDFFF in
  if is_low code then lone ()
  else if code >= 0xD800 && code <= 0xDBFF then
    if
      after + 1 < String.length st.src
      && st.src.[after] = '\\'
      && st.src.[after + 1] = 'u'
    then begin
      st.pos <- after + 2;
      let low = parse_hex4 st in
      if is_low low then 0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00)
      else lone ()
    end
    else lone ()
  else code

(* Runs without an escape are copied whole: a string with no escape at
   all is one [String.sub]. *)
let parse_string st =
  expect st '"';
  let src = st.src in
  let n = String.length src in
  let rec run_end i =
    if i >= n then i
    else
      match String.unsafe_get src i with
      | '"' | '\\' -> i
      | _ -> run_end (i + 1)
  in
  let escape buf =
    advance st;
    if st.pos >= n then fail st "truncated escape";
    let plain ch =
      advance st;
      Buffer.add_char buf ch
    in
    match src.[st.pos] with
    | 'n' -> plain '\n'
    | 't' -> plain '\t'
    | 'r' -> plain '\r'
    | 'b' -> plain '\b'
    | 'f' -> plain '\012'
    | '"' -> plain '"'
    | '\\' -> plain '\\'
    | '/' -> plain '/'
    | 'u' ->
        advance st;
        utf8_of_code buf (parse_unicode_escape st)
    | c -> fail st (Printf.sprintf "bad escape \\%c" c)
  in
  (* [stop] ends the run that began at [start]: a closing quote, a
     backslash, or the end of input *)
  let rec finish buf start stop =
    Buffer.add_substring buf src start (stop - start);
    st.pos <- stop;
    if stop >= n then fail st "unterminated string"
    else if src.[stop] = '"' then begin
      advance st;
      Buffer.contents buf
    end
    else begin
      escape buf;
      finish buf st.pos (run_end st.pos)
    end
  in
  let start = st.pos in
  let stop = run_end start in
  if stop < n && src.[stop] = '"' then begin
    st.pos <- stop + 1;
    String.sub src start (stop - start)
  end
  else finish (Buffer.create (stop - start + 16)) start stop

let parse_number st =
  let start = st.pos in
  let is_num_char c =
    (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
  in
  while (match peek st with Some c when is_num_char c -> true | _ -> false) do
    advance st
  done;
  let text = String.sub st.src start (st.pos - start) in
  match int_of_string_opt text with
  | Some i -> Int i
  | None -> (
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail st ("bad number " ^ text))

let rec parse_value st =
  skip_ws st;
  match peek st with
  | Some '"' -> String (parse_string st)
  | Some '{' -> parse_obj st
  | Some '[' -> parse_list st
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some c when c = '-' || (c >= '0' && c <= '9') -> parse_number st
  | Some c -> fail st (Printf.sprintf "unexpected %C" c)
  | None -> fail st "unexpected end of input"

and parse_obj st =
  expect st '{';
  skip_ws st;
  if peek st = Some '}' then begin
    advance st;
    Obj []
  end
  else begin
    let rec fields acc =
      skip_ws st;
      let key = parse_string st in
      skip_ws st;
      expect st ':';
      let value = parse_value st in
      skip_ws st;
      match peek st with
      | Some ',' ->
          advance st;
          fields ((key, value) :: acc)
      | Some '}' ->
          advance st;
          Obj (List.rev ((key, value) :: acc))
      | _ -> fail st "expected ',' or '}'"
    in
    fields []
  end

and parse_list st =
  expect st '[';
  skip_ws st;
  if peek st = Some ']' then begin
    advance st;
    List []
  end
  else begin
    let rec items acc =
      let value = parse_value st in
      skip_ws st;
      match peek st with
      | Some ',' ->
          advance st;
          items (value :: acc)
      | Some ']' ->
          advance st;
          List (List.rev (value :: acc))
      | _ -> fail st "expected ',' or ']'"
    in
    items []
  end

let of_string src =
  let st = { src; pos = 0 } in
  match parse_value st with
  | value ->
      skip_ws st;
      if st.pos = String.length src then Ok value
      else Error (Printf.sprintf "trailing input at offset %d" st.pos)
  | exception Parse_error msg -> Error msg

(* ---------------- accessors ---------------- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_list = function List items -> Some items | _ -> None
let get_string = function String s -> Some s | _ -> None
let get_int = function Int i -> Some i | _ -> None
let get_bool = function Bool b -> Some b | _ -> None
