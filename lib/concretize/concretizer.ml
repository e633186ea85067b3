module Ast = Ospack_spec.Ast
module Parser = Ospack_spec.Parser
module Printer = Ospack_spec.Printer
module Concrete = Ospack_spec.Concrete
module Constraint_ops = Ospack_spec.Constraint_ops
module Package = Ospack_package.Package
module Repository = Ospack_package.Repository
module Provider_index = Ospack_package.Provider_index
module Config = Ospack_config.Config
module Policy = Ospack_config.Policy
module Compilers = Ospack_config.Compilers
module Version = Ospack_version.Version
module Vlist = Ospack_version.Vlist
module Smap = Ast.Smap
module Sset = Set.Make (String)
module Obs = Ospack_obs.Obs

type ctx = Concretizer_intf.ctx = {
  repo : Repository.t;
  index : Provider_index.t;
  config : Config.t;
  compilers : Compilers.t;
  obs : Obs.t;
  facts : (string, Concretizer_intf.fact) Hashtbl.t Lazy.t;
}

(* the clause encoder's per-context facts, seeded with the preferences
   of every package the config names *)
let config_facts config =
  let facts = Hashtbl.create 16 in
  List.iter
    (fun package ->
      Hashtbl.replace facts package
        (Concretizer_intf.Package_prefs
           {
             site_versions = Policy.preferred_versions config ~package;
             variants = Policy.variant_preference config ~package;
           }))
    (Policy.configured_packages config);
  facts

let make_ctx ?(config = Config.empty) ?(obs = Obs.disabled) ~compilers repo =
  let index = Provider_index.build repo in
  let facts = lazy (config_facts config) in
  { repo; index; config; compilers; obs; facts }

let fail e = raise (Cerror.Error e)

let intersect_or_fail a b =
  match Constraint_ops.intersect_node a b with
  | Ok n -> n
  | Error c -> fail (Cerror.Conflict c)

(* ------------------------------------------------------------------ *)
(* Per-iteration node state                                            *)

type info = {
  mutable cons : Ast.node;  (* merged constraints; name = package name *)
  pkg : Package.t;
  mutable deps : Sset.t;
  mutable required_by : string option;  (* first dependent; None for root *)
  mutable provided : (string * Vlist.t) list;  (* requirement-derived *)
}

(* Pinned parameters are the output of one iteration and the input (for
   when-clause evaluation and inheritance) to the next. A pin is a
   [Concrete.node] whose version, compiler, variants and arch are the
   pinned values; its [deps] and [provided] are not read until [finalize]
   fills them in. A concretization-cache seed is thus a pin as it is. *)
type snapshot = {
  snodes : Sset.t;
  sedges : Sset.t Smap.t;
  spins : Concrete.node Smap.t;
  sprovided : (string * Vlist.t) list Smap.t;
}

let empty_snapshot =
  {
    snodes = Sset.empty;
    sedges = Smap.empty;
    spins = Smap.empty;
    sprovided = Smap.empty;
  }

let pin_equal (a : Concrete.node) (b : Concrete.node) =
  Version.equal a.version b.version
  && fst a.compiler = fst b.compiler
  && Version.equal (snd a.compiler) (snd b.compiler)
  && Smap.equal Bool.equal a.variants b.variants
  && a.arch = b.arch

let provided_equal a b =
  List.length a = List.length b
  && List.for_all2 (fun (n1, v1) (n2, v2) -> n1 = n2 && Vlist.equal v1 v2) a b

let snapshot_equal a b =
  Sset.equal a.snodes b.snodes
  && Smap.equal Sset.equal a.sedges b.sedges
  && Smap.equal pin_equal a.spins b.spins
  && Smap.equal provided_equal a.sprovided b.sprovided

(* The "candidate" view of a node for when-clause evaluation: pinned
   parameters from the previous iteration where available, otherwise the
   current constraints. *)
let candidate_of ~prev_pins name cons =
  match Smap.find_opt name prev_pins with
  | None -> cons
  | Some pin -> Concrete.as_ast_node pin

(* ------------------------------------------------------------------ *)
(* One greedy run                                                      *)

type decision = {
  d_key : string;  (* "provider:mpi", "version:mpich" *)
  d_alternatives : int;
  d_chosen : string;  (* human-readable chosen value *)
}

type run_state = {
  ctx : ctx;
  obs : Obs.t;
      (* usually [ctx.obs]; [concretize_explain] substitutes its own
         enabled sink so the decision log always has somewhere to go *)
  choices : (string * int) list;  (* index-based decision overrides *)
  forced : (string * string) list;
      (* value-based decision overrides: key -> rendered value. Used by
         the clause backend to replay a solver model through the greedy
         oracle; consulted before [choices], matched via [repr]. *)
  decisions : (string, int * string) Hashtbl.t;
      (* key -> (index, chosen repr); stable across iterations. The repr
         is authoritative on re-lookup: the candidate list for a key can
         be ranked differently on a later call in the same iteration
         (e.g. a provider already placed in the DAG ranks ahead of the
         site order), and the same decision must stick to the same
         {e value}, not the same position. The index is the fallback
         when the remembered value is no longer a candidate. *)
  mutable trace : decision list;  (* reversed *)
  vsources : (string, (string * Vlist.t) list) Hashtbl.t;
      (* per-package version-constraint provenance, for nearest-miss
         rendering in {!Cerror.No_version} *)
}

let explain_decision d =
  match String.index_opt d.d_key ':' with
  | Some i ->
      let kind = String.sub d.d_key 0 i in
      let subject =
        String.sub d.d_key (i + 1) (String.length d.d_key - i - 1)
      in
      let what =
        match kind with
        | "provider" -> Printf.sprintf "virtual %s -> %s" subject d.d_chosen
        | "version" -> Printf.sprintf "version of %s -> %s" subject d.d_chosen
        | other -> Printf.sprintf "%s of %s -> %s" other subject d.d_chosen
      in
      Printf.sprintf "%s (1 of %d candidates)" what d.d_alternatives
  | None -> Printf.sprintf "%s -> %s" d.d_key d.d_chosen

(* [decide rs key ~repr first rest] picks among the candidates
   [first :: rest]. Taking the nonempty list as two arguments makes "no
   candidates" unrepresentable at the call sites (each of which already
   checks for emptiness and raises a typed {!Cerror}), so the result is
   total — no option, no unreachable branch. *)
let index_where pred l =
  let rec go i = function
    | [] -> None
    | x :: rest -> if pred x then Some i else go (i + 1) rest
  in
  go 0 l

let decide rs key ~repr first rest =
  let alternatives = first :: rest in
  let n = List.length alternatives in
  match Hashtbl.find_opt rs.decisions key with
  | Some (i, value) -> (
      match index_where (fun a -> repr a = value) alternatives with
      | Some j -> List.nth alternatives j
      | None -> List.nth alternatives (min i (n - 1)))
  | None ->
      let forced_index =
        match List.assoc_opt key rs.forced with
        | Some value -> index_where (fun a -> repr a = value) alternatives
        | None -> None
      in
      let i =
        match forced_index with
        | Some i -> i
        | None -> (
            match List.assoc_opt key rs.choices with
            | Some i -> min i (n - 1)
            | None -> 0)
      in
      let chosen = List.nth alternatives i in
      Hashtbl.add rs.decisions key (i, repr chosen);
      let d = { d_key = key; d_alternatives = n; d_chosen = repr chosen } in
      rs.trace <- d :: rs.trace;
      (* the policy-decision log is an obs event stream: the explain
         rendering reads it back, and enabled traces show each
         decision as an annotation at the point it was taken *)
      Obs.count rs.obs "concretize.decisions" 1;
      Obs.annotate rs.obs ~cat:"explain" (explain_decision d);
      chosen

(* Record where a version constraint on [name] came from, so a later
   {!Cerror.No_version} can explain which source excluded each
   nearest-miss candidate. Unconstrained sources carry no information
   and are skipped; re-noting the same (source, constraint) pair across
   iterations is a no-op. *)
let note_vsource rs name src vl =
  if not (Vlist.is_any vl) then
    let existing =
      Option.value (Hashtbl.find_opt rs.vsources name) ~default:[]
    in
    if not (List.exists (fun (s, v) -> s = src && Vlist.equal v vl) existing)
    then Hashtbl.replace rs.vsources name (existing @ [ (src, vl) ])

(* Evaluate a when-predicate for [name] against the previous iteration's
   pins (node-local part) and the previous DAG (dependency part). *)
let when_holds ~prev ~prev_pins name cons (pred : Ast.t) =
  let candidate = candidate_of ~prev_pins name cons in
  Constraint_ops.node_satisfies ~candidate ~constraint_:pred.Ast.root
  && Ast.Smap.for_all
       (fun dep_name c ->
         Sset.exists
           (fun n ->
             let node_matches =
               n = dep_name
               ||
               match Smap.find_opt n prev.sprovided with
               | Some provided -> List.mem_assoc dep_name provided
               | None -> false
             in
             node_matches
             &&
             let dep_candidate =
               candidate_of ~prev_pins n (Ast.unconstrained n)
             in
             Constraint_ops.node_satisfies ~candidate:dep_candidate
               ~constraint_:{ c with Ast.name = n })
           prev.snodes)
       pred.Ast.deps

(* Rank versions best-first: site-preferred, then package-preferred, then
   newest; append the extrapolated exact version when nothing is known. *)
let rank_versions ~site_pref pkg (constraint_ : Vlist.t) =
  let candidates = Package.known_versions pkg in
  let satisfying = List.filter (fun v -> Vlist.mem v constraint_) candidates in
  let site_pref =
    match site_pref with
    | None -> []
    | Some pref -> List.filter (fun v -> Vlist.mem v pref) satisfying
  in
  let pkg_pref =
    List.filter (fun v -> Vlist.mem v constraint_) (Package.preferred_versions pkg)
  in
  (* first occurrences, in order (versions are equal exactly when they
     render alike) *)
  let ranked =
    List.fold_left
      (fun acc v -> if List.exists (Version.equal v) acc then acc else v :: acc)
      []
      (site_pref @ pkg_pref @ satisfying)
    |> List.rev
  in
  if ranked = [] then
    match Vlist.concrete constraint_ with Some v -> [ v ] | None -> []
  else ranked

let ranked_versions cfg pkg constraint_ =
  let site_pref = Policy.preferred_versions cfg ~package:pkg.Package.p_name in
  rank_versions ~site_pref pkg constraint_

(* [seed] pre-populates the previous-iteration pins the first iteration
   evaluates its when-clauses against. A cold run starts from no pins; a
   seeded run starts from pins harvested from earlier concretizations in
   the same context (the concretization cache's sub-DAG memo), which lets
   the fixed point begin where a previous run ended. Only pins are seeded
   — never nodes, edges, or provided sets — so dependency-existence
   ([when=^dep]) clauses still see exactly the cold-start DAG in
   iteration 1, and the fixed point converges to the cold answer. *)
let run ?(seed = Smap.empty) rs (abstract : Ast.t) =
  let ctx = rs.ctx in
  let obs = rs.obs in
  (* every constraint merge is counted — the per-iteration cost driver
     the ASP follow-up paper's evaluation is built around *)
  let intersect_or_fail a b =
    Obs.count obs "concretize.constraints_merged" 1;
    intersect_or_fail a b
  in
  let user_cons = ref abstract.Ast.deps in
  note_vsource rs abstract.Ast.root.Ast.name "the user spec"
    abstract.Ast.root.Ast.versions;
  Smap.iter
    (fun name c -> note_vsource rs name "the user spec" c.Ast.versions)
    abstract.Ast.deps;
  (* constraints contributed by deep depends_on specs, by package name *)
  let max_iterations = 50 in
  let rec iterate iter prev =
    if iter > max_iterations then
      fail (Cerror.Not_converged { iterations = max_iterations });
    Obs.count obs "concretize.iterations" 1;
    let root_name, nodes, snapshot =
      Obs.span obs ~cat:"concretize"
        ~args:[ ("iteration", string_of_int iter) ]
        "concretize.iteration"
        (fun () -> one_iteration prev)
    in
    if snapshot_equal snapshot prev then
      Obs.span obs ~cat:"concretize" "concretize.finalize" (fun () ->
          finalize root_name nodes snapshot)
    else iterate (iter + 1) snapshot
  and one_iteration prev =
    let nodes : (string, info) Hashtbl.t = Hashtbl.create 16 in
    let order : string list ref = ref [] in
    let extra = ref !user_cons in
    let prev_pins = prev.spins in
    (* Create or constrain a node for a (possibly virtual) requirement;
       returns the real package name the requirement resolved to. *)
    let rec ensure ~required_by (req : Ast.node) =
      let req =
        match Smap.find_opt req.Ast.name !extra with
        | None -> req
        | Some pending -> intersect_or_fail req pending
      in
      match Repository.find ctx.repo req.Ast.name with
      | Some pkg -> (
          match Hashtbl.find_opt nodes req.Ast.name with
          | Some info ->
              info.cons <- intersect_or_fail info.cons req;
              info.pkg.Package.p_name
          | None ->
              let info =
                {
                  cons = req;
                  pkg;
                  deps = Sset.empty;
                  required_by;
                  provided = [];
                }
              in
              Hashtbl.replace nodes req.Ast.name info;
              order := req.Ast.name :: !order;
              pkg.Package.p_name)
      | None ->
          if Provider_index.is_virtual ctx.index req.Ast.name then
            resolve_virtual ~required_by req
          else fail (Cerror.Unknown_package req.Ast.name)
    and resolve_virtual ~required_by (req : Ast.node) =
      let virtual_ = req.Ast.name in
      let entries = Provider_index.providers_satisfying ctx.index req in
      if entries = [] then
        fail
          (Cerror.No_provider
             { virtual_; constraint_ = Printer.node_to_string req });
      let provider_names =
        List.map (fun e -> e.Provider_index.e_provider) entries
        |> List.sort_uniq String.compare
      in
      (* rank: user-forced, then already-in-DAG, then site order, then
         name; each provider ranked once, before the sort *)
      let site = Policy.rank_provider ctx.config ~virtual_ in
      let rank name =
        let forced = if Smap.mem name !user_cons then 0 else 1 in
        let present = if Hashtbl.mem nodes name then 0 else 1 in
        (forced, present, site name, name)
      in
      let ranked =
        List.map rank provider_names
        |> List.sort compare
        |> List.map (fun (_, _, _, name) -> name)
      in
      let provider =
        match ranked with
        | [] ->
            (* [entries] was checked nonempty above and sorting preserves
               length, so this is locally dead — but if a future ranking
               stage ever filters, the user gets a provider error, not an
               abort *)
            fail
              (Cerror.No_provider
                 { virtual_; constraint_ = Printer.node_to_string req })
        | first :: rest ->
            decide rs ("provider:" ^ virtual_) ~repr:(fun p -> p) first rest
      in
      (* entries of the chosen provider, newest provided interface first *)
      let provider_entries =
        List.filter (fun e -> e.Provider_index.e_provider = provider) entries
        |> List.stable_sort (fun a b ->
               Vlist.compare_sup b.Provider_index.e_provided.Ast.versions
                 a.Provider_index.e_provided.Ast.versions)
      in
      (* translate: non-version constraints transfer to the provider;
         the provider-side when-condition constrains its version etc.
         A provider may expose the interface under several conditions
         (e.g. mpich provides mpi@:3 when @3: and mpi@:1 when @1:) — try
         entries in order and keep the first that does not conflict with
         the provider's other constraints. *)
      let transferred =
        { req with Ast.name = provider; versions = Vlist.any }
      in
      let attempt entry =
        let from_when =
          match entry.Provider_index.e_when with
          | None -> Ast.unconstrained provider
          | Some w -> { w.Ast.root with Ast.name = provider }
        in
        note_vsource rs provider
          (Printf.sprintf "provides condition on %s" provider)
          from_when.Ast.versions;
        let provider_req = intersect_or_fail transferred from_when in
        let name = ensure ~required_by provider_req in
        let info = Hashtbl.find nodes name in
        let provided_versions =
          Vlist.intersect entry.Provider_index.e_provided.Ast.versions
            req.Ast.versions
        in
        if Vlist.is_empty provided_versions then
          fail
            (Cerror.No_provider
               { virtual_; constraint_ = Printer.node_to_string req });
        (match List.assoc_opt virtual_ info.provided with
        | None ->
            info.provided <- (virtual_, provided_versions) :: info.provided
        | Some existing ->
            let merged = Vlist.intersect existing provided_versions in
            if Vlist.is_empty merged then
              fail
                (Cerror.No_provider
                   { virtual_; constraint_ = Printer.node_to_string req });
            info.provided <-
              (virtual_, merged) :: List.remove_assoc virtual_ info.provided);
        name
      in
      let rec try_entries first_err = function
        | [] -> (
            match first_err with
            | Some e -> raise e
            | None ->
                fail
                  (Cerror.No_provider
                     { virtual_; constraint_ = Printer.node_to_string req }))
        | entry :: rest -> (
            match attempt entry with
            | name -> name
            | exception (Cerror.Error _ as e) ->
                try_entries
                  (Some (Option.value first_err ~default:e))
                  rest)
      in
      try_entries None provider_entries
    in
    (* seed the DAG from the root request *)
    let root_name = ensure ~required_by:None abstract.Ast.root in
    (* expand dependencies breadth-first *)
    let queue = Queue.create () in
    Queue.add root_name queue;
    let expanded = Hashtbl.create 16 in
    while not (Queue.is_empty queue) do
      let name = Queue.pop queue in
      if not (Hashtbl.mem expanded name) then begin
        Hashtbl.replace expanded name ();
        let info = Hashtbl.find nodes name in
        List.iter
          (fun (d : Package.dep) ->
            let active =
              match d.Package.d_when with
              | None -> true
              | Some pred -> when_holds ~prev ~prev_pins name info.cons pred
            in
            if active then begin
              note_vsource rs d.Package.d_spec.Ast.root.Ast.name
                (Printf.sprintf "%s depends on %s" name
                   (Printer.node_to_string d.Package.d_spec.Ast.root))
                d.Package.d_spec.Ast.root.Ast.versions;
              (* deep constraints of this depends_on apply DAG-wide *)
              Ast.Smap.iter
                (fun dep_name c ->
                  note_vsource rs dep_name
                    (Printf.sprintf "constraint from %s (depends_on %s)" name
                       (Printer.node_to_string c))
                    c.Ast.versions;
                  extra :=
                    Smap.update dep_name
                      (function
                        | None -> Some c
                        | Some existing ->
                            Some (intersect_or_fail existing c))
                      !extra;
                  match Hashtbl.find_opt nodes dep_name with
                  | Some di -> di.cons <- intersect_or_fail di.cons c
                  | None -> ())
                d.Package.d_spec.Ast.deps;
              let child =
                ensure ~required_by:(Some name) d.Package.d_spec.Ast.root
              in
              if child <> name then begin
                info.deps <- Sset.add child info.deps;
                Queue.add child queue
              end
            end)
          info.pkg.Package.p_dependencies
      end
    done;
    (* pin parameters in creation order (parents first) *)
    let new_pins = ref Smap.empty in
    let creation_order = List.rev !order in
    List.iter
      (fun name ->
        let info = Hashtbl.find nodes name in
        let pkg = info.pkg in
        let cons = info.cons in
        (* architecture *)
        let parent_pins =
          match info.required_by with
          | None -> None
          | Some parent -> Smap.find_opt parent !new_pins
        in
        let arch =
          match cons.Ast.arch with
          | Some a -> a
          | None -> (
              match parent_pins with
              | Some p -> p.Concrete.arch
              | None -> Policy.default_arch ctx.config)
        in
        (* compiler-feature requirements active under the current pins
           (paper §4.5: packages depend on compiler features) *)
        let features =
          List.filter_map
            (fun (f : Package.feature_req) ->
              match f.Package.fr_when with
              | None -> Some f.Package.fr_feature
              | Some pred ->
                  if
                    Constraint_ops.node_satisfies
                      ~candidate:(candidate_of ~prev_pins name cons)
                      ~constraint_:pred.Ast.root
                  then Some f.Package.fr_feature
                  else None)
            pkg.Package.p_compiler_features
        in
        let requested_of req =
          let base =
            match req with
            | Some (r : Ast.compiler_req) ->
                "%" ^ r.Ast.c_name
                ^
                (if Vlist.is_any r.Ast.c_versions then ""
                 else "@" ^ Vlist.to_string r.Ast.c_versions)
            | None -> "any"
          in
          if features = [] then base
          else base ^ " with features " ^ String.concat "," features
        in
        (* compiler *)
        let compiler =
          match cons.Ast.compiler with
          | Some req -> (
              match
                Policy.choose_toolchain ctx.config ctx.compilers ~arch
                  ~features ~req:(Some req) ()
              with
              | Some tc -> (tc.Compilers.tc_name, tc.Compilers.tc_version)
              | None ->
                  fail
                    (Cerror.No_compiler
                       { package = name; requested = requested_of (Some req);
                         arch }))
          | None -> (
              let inherited =
                match parent_pins with
                | Some p -> (
                    let cname, cver = p.Concrete.compiler in
                    match
                      Compilers.find ctx.compilers ~name:cname ~version:cver
                    with
                    | Some tc
                      when Compilers.supports tc ~arch
                           && Compilers.has_features tc features ->
                        Some (cname, cver)
                    | _ -> None)
                | None -> None
              in
              match inherited with
              | Some c -> c
              | None -> (
                  match
                    Policy.choose_toolchain ctx.config ctx.compilers ~arch
                      ~features ~req:None ()
                  with
                  | Some tc -> (tc.Compilers.tc_name, tc.Compilers.tc_version)
                  | None ->
                      fail
                        (Cerror.No_compiler
                           { package = name; requested = requested_of None;
                             arch })))
        in
        (* version *)
        let version =
          match ranked_versions ctx.config pkg cons.Ast.versions with
          | [] ->
              let sources =
                Option.value (Hashtbl.find_opt rs.vsources name) ~default:[]
              in
              let nearest =
                List.filteri (fun i _ -> i < 5) (Package.known_versions pkg)
                |> List.map (fun v ->
                       let why =
                         match
                           List.find_opt
                             (fun (_, vl) -> not (Vlist.mem v vl))
                             sources
                         with
                         | Some (src, vl) ->
                             Printf.sprintf "excluded by @%s (%s)"
                               (Vlist.to_string vl) src
                         | None -> "excluded by the combined constraint"
                       in
                       (Version.to_string v, why))
              in
              fail
                (Cerror.No_version
                   {
                     package = name;
                     constraint_ = Vlist.to_string cons.Ast.versions;
                     nearest;
                   })
          | [ v ] -> v
          | v :: rest ->
              decide rs ("version:" ^ name) ~repr:Version.to_string v rest
        in
        (* variants *)
        Ast.Smap.iter
          (fun v _ ->
            if Package.find_variant pkg v = None then
              fail (Cerror.Unknown_variant { package = name; variant = v }))
          cons.Ast.variants;
        let variants =
          List.fold_left
            (fun m (vname, default) ->
              let value =
                match Ast.Smap.find_opt vname cons.Ast.variants with
                | Some v -> v
                | None -> (
                    match
                      List.assoc_opt vname
                        (Policy.variant_preference ctx.config ~package:name)
                    with
                    | Some v -> v
                    | None -> default)
              in
              Smap.add vname value m)
            Smap.empty (Package.variant_defaults pkg)
        in
        new_pins :=
          Smap.add name
            {
              Concrete.name;
              version;
              compiler;
              variants;
              arch;
              deps = [];
              provided = [];
            }
            !new_pins)
      creation_order;
    (* directive-derived provided sets, evaluated against the new pins *)
    let provided_of name (info : info) =
      let candidate = candidate_of ~prev_pins:!new_pins name info.cons in
      List.filter_map
        (fun (p : Package.provide) ->
          let active =
            match p.Package.pv_when with
            | None -> true
            | Some pred ->
                Constraint_ops.node_satisfies ~candidate
                  ~constraint_:pred.Ast.root
          in
          if active then
            Some (p.Package.pv_spec.Ast.name, p.Package.pv_spec.Ast.versions)
          else None)
        info.pkg.Package.p_provides
      |> List.sort compare
    in
    let snapshot =
      {
        snodes =
          Hashtbl.fold (fun k _ acc -> Sset.add k acc) nodes Sset.empty;
        sedges =
          Hashtbl.fold (fun k info acc -> Smap.add k info.deps acc) nodes
            Smap.empty;
        spins = !new_pins;
        sprovided =
          Hashtbl.fold
            (fun k info acc -> Smap.add k (provided_of k info) acc)
            nodes Smap.empty;
      }
    in
    (root_name, nodes, snapshot)
  and finalize root_name nodes snapshot =
    (* conflicts directives (paper §3.1: constraints tested on the spec) *)
    Hashtbl.iter
      (fun name (info : info) ->
        let candidate = candidate_of ~prev_pins:snapshot.spins name info.cons in
        List.iter
          (fun (c : Package.conflict_decl) ->
            let applicable =
              match c.Package.cf_when with
              | None -> true
              | Some pred ->
                  Constraint_ops.node_satisfies ~candidate
                    ~constraint_:pred.Ast.root
            in
            if
              applicable
              && Constraint_ops.node_satisfies ~candidate
                   ~constraint_:{ c.Package.cf_spec with Ast.name }
            then
              fail
                (Cerror.Conflict_declared
                   {
                     package = name;
                     spec = Printer.node_to_string c.Package.cf_spec;
                     msg = c.Package.cf_msg;
                   }))
          info.pkg.Package.p_conflicts)
      nodes;
    (* every user ^constraint must have materialized *)
    Ast.Smap.iter
      (fun cname _ ->
        let materialized =
          Sset.mem cname snapshot.snodes
          || Smap.exists
               (fun _ provided -> List.mem_assoc cname provided)
               snapshot.sprovided
        in
        if not materialized then
          fail (Cerror.Unused_constraint { package = cname; root = root_name }))
      abstract.Ast.deps;
    let concrete_nodes =
      Sset.fold
        (fun name acc ->
          let info = Hashtbl.find nodes name in
          {
            (Smap.find name snapshot.spins) with
            Concrete.deps = Sset.elements info.deps;
            provided = Smap.find name snapshot.sprovided;
          }
          :: acc)
        snapshot.snodes []
    in
    match Concrete.make ~root:root_name concrete_nodes with
    | Ok c -> c
    | Error (Concrete.Cyclic cycle) -> fail (Cerror.Cycle cycle)
    | Error e ->
        invalid_arg
          (Format.asprintf "concretizer produced an invalid DAG: %a"
             Concrete.pp_validation_error e)
  in
  iterate 1 { empty_snapshot with spins = seed }

(* ------------------------------------------------------------------ *)
(* Public entry points                                                 *)

let run_once ?obs ?seed ?(forced = []) (ctx : ctx) choices abstract =
  let obs = Option.value obs ~default:ctx.obs in
  let rs =
    {
      ctx;
      obs;
      choices;
      forced;
      decisions = Hashtbl.create 8;
      trace = [];
      vsources = Hashtbl.create 8;
    }
  in
  match run ?seed rs abstract with
  | concrete -> (Ok concrete, List.rev rs.trace)
  | exception Cerror.Error e -> (Error e, List.rev rs.trace)

let run_trace ?obs ?(forced = []) (ctx : ctx) choices abstract =
  run_once ?obs ~forced ctx choices abstract

let concretize ctx abstract = fst (run_once ctx [] abstract)

(* Pins seed for a query, with its size: every package the cache ever
   concretized, except where the stored node contradicts the query's own
   constraints (the root constraint for the root's name, the ^dep
   constraint otherwise) — a contradicted seed would make iteration 1
   evaluate when-clauses against parameters the fixed point can never
   keep. The cache keeps the seed map, so only the query's own names are
   looked up: O((1 + |^deps|) log S) for S seeds. *)
let seed_for cache (abstract : Ast.t) =
  let root = abstract.Ast.root in
  let check name c ((seeds, count) as acc) =
    match Smap.find_opt name seeds with
    | Some node when not (Concrete.node_satisfies node c) ->
        (Smap.remove name seeds, count - 1)
    | Some _ | None -> acc
  in
  Smap.fold
    (fun name c acc -> if name = root.Ast.name then acc else check name c acc)
    abstract.Ast.deps
    (check root.Ast.name root (Ccache.seed_map cache, Ccache.seed_count cache))

let concretize_cached ?cache ?installed (ctx : ctx) abstract =
  let obs = ctx.obs in
  let reused =
    match installed with
    | None -> None
    | Some find ->
        Obs.span obs ~cat:"ccache" "ccache.reuse_lookup" (fun () ->
            match find abstract with
            | Some c ->
                Obs.count obs "ccache.reuse_hits" 1;
                Some c
            | None -> None)
  in
  match reused with
  | Some c -> Ok c
  | None -> (
      match cache with
      | None -> concretize ctx abstract
      | Some cache -> (
          let hit =
            Obs.span obs ~cat:"ccache" "ccache.lookup" (fun () ->
                Ccache.lookup cache abstract)
          in
          match hit with
          | Some c -> Ok c
          | None -> (
              match Ccache.failure cache abstract with
              | Some e -> Error e
              | None ->
                  let seed =
                    Obs.span obs ~cat:"ccache" "ccache.seed" (fun () ->
                        let s, count = seed_for cache abstract in
                        Obs.count obs "ccache.seeded_pins" count;
                        s)
                  in
                  let result = fst (run_once ~seed ctx [] abstract) in
                  (match result with
                  | Ok c -> Ccache.store cache abstract c
                  | Error e -> Ccache.store_failure cache abstract e);
                  result)))

let concretize_explain (ctx : ctx) abstract =
  (* the explain lines are read back from the obs event stream (rather
     than a bespoke string list): the run annotates each decision as it
     is taken, and we collect the annotations it produced. When the
     session already records, the same annotations land in its trace. *)
  let obs = if Obs.enabled ctx.obs then ctx.obs else Obs.create () in
  let m = Obs.mark obs in
  let result, _trace = run_once ~obs ctx [] abstract in
  Result.map
    (fun c -> (c, Obs.annotations_since obs ~cat:"explain" m))
    result

let concretize_string ctx spec =
  match Parser.parse spec with
  | Error e -> Error e
  | Ok abstract -> (
      match concretize ctx abstract with
      | Ok c -> Ok c
      | Error e -> Error (Cerror.to_string e))
