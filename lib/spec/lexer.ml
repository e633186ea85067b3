type token =
  | Id of string
  | At
  | Plus
  | Minus
  | Tilde
  | Percent
  | Equals
  | Caret
  | Comma
  | Colon

let token_to_string = function
  | Id s -> Printf.sprintf "identifier %S" s
  | At -> "'@'"
  | Plus -> "'+'"
  | Minus -> "'-'"
  | Tilde -> "'~'"
  | Percent -> "'%'"
  | Equals -> "'='"
  | Caret -> "'^'"
  | Comma -> "','"
  | Colon -> "':'"

let is_id_start c =
  (c >= 'A' && c <= 'Z')
  || (c >= 'a' && c <= 'z')
  || (c >= '0' && c <= '9')
  || c = '_'

let is_id_char c = is_id_start c || c = '.' || c = '-'

let tokenize s =
  let n = String.length s in
  let rec scan i acc =
    if i >= n then Ok (List.rev acc)
    else
      match s.[i] with
      | ' ' | '\t' | '\n' | '\r' -> scan (i + 1) acc
      | '@' -> scan (i + 1) (At :: acc)
      | '+' -> scan (i + 1) (Plus :: acc)
      | '-' -> scan (i + 1) (Minus :: acc)
      | '~' -> scan (i + 1) (Tilde :: acc)
      | '%' -> scan (i + 1) (Percent :: acc)
      | '=' -> scan (i + 1) (Equals :: acc)
      | '^' -> scan (i + 1) (Caret :: acc)
      | ',' -> scan (i + 1) (Comma :: acc)
      | ':' -> scan (i + 1) (Colon :: acc)
      | c when is_id_start c ->
          let j = ref i in
          while !j < n && is_id_char s.[!j] do
            incr j
          done;
          scan !j (Id (String.sub s i (!j - i)) :: acc)
      | c ->
          Error
            (Printf.sprintf "unexpected character %C at position %d in %S" c i
               s)
  in
  scan 0 []
