module Smap = Ast.Smap
module Vlist = Ospack_version.Vlist

type conflict = {
  package : string;
  field : string;
  left : string;
  right : string;
}

let conflict_to_string c =
  Printf.sprintf "conflicting %s constraints on %s: %s vs %s" c.field
    (if c.package = "" then "<anonymous>" else c.package)
    c.left c.right

let ( let* ) = Result.bind

let intersect_name pkg a b =
  if a = "" then Ok b
  else if b = "" || a = b then Ok a
  else Error { package = pkg; field = "name"; left = a; right = b }

let intersect_versions pkg a b =
  let isect = Vlist.intersect a b in
  if Vlist.is_empty isect then
    Error
      {
        package = pkg;
        field = "version";
        left = Vlist.to_string a;
        right = Vlist.to_string b;
      }
  else Ok isect

let compiler_to_string (c : Ast.compiler_req) =
  if Vlist.is_any c.c_versions then c.c_name
  else c.c_name ^ "@" ^ Vlist.to_string c.c_versions

let intersect_compiler pkg a b =
  match (a, b) with
  | None, x | x, None -> Ok x
  | Some ca, Some cb ->
      let conflict () =
        Error
          {
            package = pkg;
            field = "compiler";
            left = compiler_to_string ca;
            right = compiler_to_string cb;
          }
      in
      if ca.Ast.c_name <> cb.Ast.c_name then conflict ()
      else
        let vs = Vlist.intersect ca.c_versions cb.c_versions in
        if Vlist.is_empty vs then conflict ()
        else Ok (Some { Ast.c_name = ca.c_name; c_versions = vs })

let intersect_compiler_reqs a b =
  match intersect_compiler "" a b with
  | Ok c -> Ok c
  | Error c ->
      Error
        (Printf.sprintf "conflicting compiler constraints: %%%s vs %%%s" c.left
           c.right)

let intersect_variants pkg a b =
  Smap.fold
    (fun v enabled acc ->
      let* vars = acc in
      match Smap.find_opt v vars with
      | None -> Ok (Smap.add v enabled vars)
      | Some existing ->
          if Bool.equal existing enabled then Ok vars
          else
            Error
              {
                package = pkg;
                field = "variant " ^ v;
                left = (if existing then "+" else "~") ^ v;
                right = (if enabled then "+" else "~") ^ v;
              })
    b (Ok a)

let intersect_arch pkg a b =
  match (a, b) with
  | None, x | x, None -> Ok x
  | Some aa, Some ab ->
      if aa = ab then Ok (Some aa)
      else Error { package = pkg; field = "architecture"; left = aa; right = ab }

let intersect_node (a : Ast.node) (b : Ast.node) =
  let pkg = if a.name <> "" then a.name else b.name in
  let* name = intersect_name pkg a.name b.name in
  let* versions = intersect_versions pkg a.versions b.versions in
  let* compiler = intersect_compiler pkg a.compiler b.compiler in
  let* variants = intersect_variants pkg a.variants b.variants in
  let* arch = intersect_arch pkg a.arch b.arch in
  Ok { Ast.name; versions; compiler; variants; arch }

let merge (a : Ast.t) (b : Ast.t) =
  let* root = intersect_node a.root b.root in
  let* deps =
    Smap.fold
      (fun name node acc ->
        let* deps = acc in
        match Smap.find_opt name deps with
        | None -> Ok (Smap.add name node deps)
        | Some existing ->
            let* merged = intersect_node existing node in
            Ok (Smap.add name merged deps))
      b.deps (Ok a.deps)
  in
  Ok { Ast.root; deps }

let node_satisfies ~(candidate : Ast.node) ~(constraint_ : Ast.node) =
  let name_ok =
    constraint_.name = "" || constraint_.name = candidate.name
  in
  let version_ok =
    Vlist.is_any constraint_.versions
    ||
    match Vlist.concrete candidate.versions with
    | Some v -> Vlist.mem v constraint_.versions
    | None -> Vlist.subset candidate.versions constraint_.versions
  in
  let compiler_ok =
    match constraint_.compiler with
    | None -> true
    | Some req -> (
        match candidate.compiler with
        | None -> false
        | Some have ->
            have.c_name = req.c_name
            && (Vlist.is_any req.c_versions
               ||
               match Vlist.concrete have.c_versions with
               | Some v -> Vlist.mem v req.c_versions
               | None -> Vlist.subset have.c_versions req.c_versions))
  in
  let variants_ok =
    Smap.for_all
      (fun v enabled ->
        match Smap.find_opt v candidate.variants with
        | Some have -> Bool.equal have enabled
        | None -> false)
      constraint_.variants
  in
  let arch_ok =
    match constraint_.arch with
    | None -> true
    | Some a -> candidate.arch = Some a
  in
  name_ok && version_ok && compiler_ok && variants_ok && arch_ok
