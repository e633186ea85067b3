module Ast = Ospack_spec.Ast
module Parser = Ospack_spec.Parser
module Version = Ospack_version.Version
module Vlist = Ospack_version.Vlist

let default_arch cfg =
  Option.value (Config.get cfg "arch") ~default:"linux-x86_64"

(* "icc, gcc@4.4.7" — each entry is an anonymous-or-named compiler spec;
   we accept either "gcc@4.4.7" (a name with a version) or "%gcc@4.4.7". *)
let compiler_order cfg =
  Config.get_list cfg "compiler_order"
  |> List.filter_map (fun entry ->
         let entry =
           if String.length entry > 0 && entry.[0] = '%' then entry
           else "%" ^ entry
         in
         match Parser.parse_node entry with
         | Ok node -> node.Ast.compiler
         | Error _ -> None)

let toolchain_matches (req : Ast.compiler_req) (tc : Compilers.toolchain) =
  tc.Compilers.tc_name = req.Ast.c_name
  && Vlist.mem tc.Compilers.tc_version req.Ast.c_versions

let builtin_vendor_rank = [ "gcc"; "intel"; "clang"; "xl"; "pgi"; "cray" ]

let rank_in_list order item =
  let rec go i = function
    | [] -> max_int
    | x :: rest -> if x = item then i else go (i + 1) rest
  in
  go 0 order

let choose_toolchain ?order cfg compilers ~arch ?(features = []) ~req () =
  let candidates =
    (match req with
    | Some r -> Compilers.satisfying compilers ~arch r
    | None -> Compilers.available compilers ~arch)
    |> List.filter (fun tc -> Compilers.has_features tc features)
  in
  let order = match order with Some o -> o | None -> compiler_order cfg in
  let order_rank tc =
    let rec go i = function
      | [] -> max_int
      | entry :: rest -> if toolchain_matches entry tc then i else go (i + 1) rest
    in
    go 0 order
  in
  let key tc =
    ( order_rank tc,
      rank_in_list builtin_vendor_rank tc.Compilers.tc_name,
      tc.Compilers.tc_name )
  in
  (* each candidate keyed once *)
  let better (ka, a) (kb, b) =
    let c = compare ka kb in
    c < 0
    || c = 0
       && Version.compare a.Compilers.tc_version b.Compilers.tc_version > 0
  in
  List.fold_left
    (fun best tc ->
      let cand = (key tc, tc) in
      match best with
      | Some b when not (better cand b) -> best
      | Some _ | None -> Some cand)
    None candidates
  |> Option.map snd

let provider_order cfg ~virtual_ =
  Config.get_list cfg ("providers." ^ virtual_)

let rank_provider cfg ~virtual_ =
  let order = provider_order cfg ~virtual_ in
  fun name -> rank_in_list order name

let configured_packages cfg =
  let prefix = "packages." in
  let np = String.length prefix in
  Config.keys cfg
  |> List.filter_map (fun key ->
         match String.rindex_opt key '.' with
         | Some i when i > np && String.starts_with ~prefix key -> (
             match String.sub key (i + 1) (String.length key - i - 1) with
             | "version" | "variants" -> Some (String.sub key np (i - np))
             | _ -> None)
         | _ -> None)
  |> List.sort_uniq String.compare

let preferred_versions cfg ~package =
  match Config.get cfg (Printf.sprintf "packages.%s.version" package) with
  | None -> None
  | Some body -> (
      match Vlist.of_string body with
      | vl -> Some vl
      | exception Invalid_argument _ -> None)

let newest satisfying versions =
  List.fold_left
    (fun best v ->
      if not (satisfying v) then best
      else
        match best with
        | None -> Some v
        | Some b -> if Version.compare v b > 0 then Some v else best)
    None versions

let choose_version cfg ~package ~candidates ~constraint_ =
  let in_constraint v = Vlist.mem v constraint_ in
  let preferred = preferred_versions cfg ~package in
  let with_pref =
    match preferred with
    | None -> None
    | Some pref ->
        newest (fun v -> in_constraint v && Vlist.mem v pref) candidates
  in
  match with_pref with
  | Some v -> Some v
  | None -> (
      match newest in_constraint candidates with
      | Some v -> Some v
      | None ->
          (* unknown exact version requested: extrapolate (paper §3.2.3) *)
          Vlist.concrete constraint_)

let external_for cfg ~package =
  match Config.get cfg ("externals." ^ package) with
  | None -> None
  | Some value -> (
      match String.index_opt value '|' with
      | None -> None
      | Some i ->
          let spec = String.trim (String.sub value 0 i) in
          let prefix =
            String.trim
              (String.sub value (i + 1) (String.length value - i - 1))
          in
          if prefix = "" then None
          else
            (match Parser.parse spec with
            | Ok ast when ast.Ast.root.Ast.name = package -> Some (ast, prefix)
            | _ -> None))

let variant_preference cfg ~package =
  match Config.get cfg (Printf.sprintf "packages.%s.variants" package) with
  | None -> []
  | Some body -> (
      match Parser.parse_node body with
      | Ok node -> Ast.Smap.bindings node.Ast.variants
      | Error _ -> [])
