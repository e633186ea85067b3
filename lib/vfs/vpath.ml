let split p =
  String.split_on_char '/' p |> List.filter (fun c -> c <> "" && c <> ".")

let is_absolute p = String.length p > 0 && p.[0] = '/'

let under ~prefix p =
  let n = String.length prefix in
  String.starts_with ~prefix p
  && (String.length p = n || p.[n] = '/' || prefix = "/")

let concat components = "/" ^ String.concat "/" components

(* absolute, no empty, "." or ".." component, no trailing '/': the fixed
   points of [normalize], recognised in one scan without allocating *)
let is_canonical p =
  let n = String.length p in
  let rec component start i =
    if i < n && p.[i] <> '/' then component start (i + 1)
    else
      let len = i - start in
      len > 0
      && not (len = 1 && p.[start] = '.')
      && not (len = 2 && p.[start] = '.' && p.[start + 1] = '.')
      && (i = n || component (i + 1) (i + 1))
  in
  n > 0 && p.[0] = '/' && (n = 1 || component 1 1)

let normalize p =
  if is_canonical p then p
  else
    let rec resolve acc = function
      | [] -> List.rev acc
      | ".." :: rest -> (
          match acc with [] -> resolve [] rest | _ :: up -> resolve up rest)
      | c :: rest -> resolve (c :: acc) rest
    in
    concat (resolve [] (split p))

let extend dir name = if dir = "/" then "/" ^ name else dir ^ "/" ^ name

let join dir name =
  if is_absolute name then normalize name else normalize (dir ^ "/" ^ name)

let dirname p =
  match List.rev (split p) with
  | [] | [ _ ] -> "/"
  | _ :: rest -> concat (List.rev rest)

let basename p =
  match List.rev (split p) with [] -> "" | last :: _ -> last
