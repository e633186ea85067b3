module Ast = Ospack_spec.Ast
module Printer = Ospack_spec.Printer
module Package = Ospack_package.Package
module Repository = Ospack_package.Repository
module Provider_index = Ospack_package.Provider_index
module Policy = Ospack_config.Policy
module Version = Ospack_version.Version
module Vlist = Ospack_version.Vlist
module Smap = Ast.Smap

type var_kind =
  | Present of string
  | Version_is of string * Version.t
  | Provider_is of string * string

type t = {
  nvars : int;
  kinds : var_kind array;  (* 1-based; index 0 unused *)
  cl : (int list * int) list;  (* (lits, origin), emission order *)
  reasons : string array;  (* origin id -> rendering *)
  ord : int list;
}

let nvars t = t.nvars
let clause_list t = t.cl
let order t = t.ord
let reason t o = t.reasons.(o)

let var_to_string t v =
  match t.kinds.(v) with
  | Present p -> Printf.sprintf "P(%s)" p
  | Version_is (p, ver) -> Printf.sprintf "V(%s@%s)" p (Version.to_string ver)
  | Provider_is (virt, pr) -> Printf.sprintf "Prov(%s=%s)" virt pr

(* ------------------------------------------------------------------ *)
(* Builder                                                             *)

type builder = {
  ctx : Concretizer_intf.ctx;
  abstract : Ast.t;
  vars : (string, int) Hashtbl.t;
  mutable rkinds : var_kind list;  (* reversed *)
  mutable nv : int;
  mutable rclauses : (int list * int) list;  (* reversed *)
  mutable rreasons : string list;  (* reversed *)
  mutable nreasons : int;
  cand : (string, Version.t list) Hashtbl.t;
  extra_points : (string, Version.t list) Hashtbl.t;
  maybe : (string * string, unit) Hashtbl.t;
      (* (pkg, variant) pairs some spec might pin: their value is not
         statically certain, so predicates over them are relaxed *)
  mutable closure : string list;  (* reversed during build *)
  closure_set : (string, unit) Hashtbl.t;
  mutable virts : string list;  (* reversed during build *)
  virt_set : (string, unit) Hashtbl.t;
}

let var b key kind =
  match Hashtbl.find_opt b.vars key with
  | Some v -> v
  | None ->
      b.nv <- b.nv + 1;
      Hashtbl.add b.vars key b.nv;
      b.rkinds <- kind :: b.rkinds;
      b.nv

let p_var b name = var b ("P:" ^ name) (Present name)

let v_var b name ver =
  var b
    ("V:" ^ name ^ "@" ^ Version.to_string ver)
    (Version_is (name, ver))

let prov_var b virt pr = var b ("Prov:" ^ virt ^ ":" ^ pr) (Provider_is (virt, pr))

let emit b lits why =
  let o = b.nreasons in
  b.nreasons <- o + 1;
  b.rreasons <- why :: b.rreasons;
  b.rclauses <- (lits, o) :: b.rclauses

let pkg_of b name =
  match Repository.find b.ctx.repo name with
  | Some p -> p
  | None -> invalid_arg ("Clauses: package not in closure: " ^ name)

let cand_of b name =
  Option.value (Hashtbl.find_opt b.cand name) ~default:[]

(* ------------------------------------------------------------------ *)
(* Closure walk: reachable packages, encountered virtuals, externally
   constrainable variants, extrapolated version points                 *)

let note_point b name vl =
  match Vlist.concrete vl with
  | None -> ()
  | Some v ->
      let existing =
        Option.value (Hashtbl.find_opt b.extra_points name) ~default:[]
      in
      if not (List.exists (Version.equal v) existing) then
        Hashtbl.replace b.extra_points name (existing @ [ v ])

let compute_closure b =
  let q = Queue.create () in
  let add_pkg name =
    if not (Hashtbl.mem b.closure_set name) then
      match Repository.find b.ctx.repo name with
      | Some _ ->
          Hashtbl.add b.closure_set name ();
          b.closure <- name :: b.closure;
          Queue.add name q
      | None -> ()
  in
  let add_virt name =
    if not (Hashtbl.mem b.virt_set name) then begin
      Hashtbl.add b.virt_set name ();
      b.virts <- name :: b.virts
    end;
    List.iter
      (fun e -> add_pkg e.Provider_index.e_provider)
      (Provider_index.providers b.ctx.index name)
  in
  let is_virt name = Provider_index.is_virtual b.ctx.index name in
  let add_name name = if is_virt name then add_virt name else add_pkg name in
  let note_variants name variants =
    if not (Smap.is_empty variants) then
      let targets =
        if is_virt name then
          List.map
            (fun e -> e.Provider_index.e_provider)
            (Provider_index.providers b.ctx.index name)
        else [ name ]
      in
      Smap.iter
        (fun vn _ ->
          List.iter (fun t -> Hashtbl.replace b.maybe (t, vn) ()) targets)
        variants
  in
  let note_node (n : Ast.node) =
    if not (is_virt n.Ast.name) then note_point b n.Ast.name n.Ast.versions;
    note_variants n.Ast.name n.Ast.variants
  in
  add_name b.abstract.Ast.root.Ast.name;
  note_node b.abstract.Ast.root;
  Smap.iter
    (fun name c ->
      add_name name;
      note_node c)
    b.abstract.Ast.deps;
  while not (Queue.is_empty q) do
    let name = Queue.pop q in
    let pkg = pkg_of b name in
    List.iter
      (fun (d : Package.dep) ->
        let target = d.Package.d_spec.Ast.root in
        add_name target.Ast.name;
        note_node target;
        Smap.iter
          (fun dn c ->
            add_name dn;
            note_node c)
          d.Package.d_spec.Ast.deps)
      pkg.Package.p_dependencies
  done;
  b.closure <- List.rev b.closure;
  b.virts <- List.rev b.virts

(* ------------------------------------------------------------------ *)
(* Candidate versions and variables, in decision order                 *)

let ranked_providers b virt =
  let entries = Provider_index.providers b.ctx.index virt in
  let prs =
    List.map (fun e -> e.Provider_index.e_provider) entries
    |> List.sort_uniq String.compare
    |> List.filter (Hashtbl.mem b.closure_set)
  in
  let rank name =
    let forced = if Smap.mem name b.abstract.Ast.deps then 0 else 1 in
    (forced, Policy.rank_provider b.ctx.config ~virtual_:virt name, name)
  in
  List.sort (fun a b -> compare (rank a) (rank b)) prs

let make_vars b =
  List.iter
    (fun name ->
      let pkg = pkg_of b name in
      let base = Concretizer.ranked_versions b.ctx.config pkg Vlist.any in
      let extra =
        Option.value (Hashtbl.find_opt b.extra_points name) ~default:[]
        |> List.filter (fun v -> not (List.exists (Version.equal v) base))
      in
      Hashtbl.replace b.cand name (base @ extra))
    b.closure;
  (* creation in decision order: providers, versions, presence *)
  let ord = ref [] in
  List.iter
    (fun virt ->
      List.iter
        (fun pr -> ord := prov_var b virt pr :: !ord)
        (ranked_providers b virt))
    b.virts;
  List.iter
    (fun name ->
      List.iter (fun v -> ord := v_var b name v :: !ord) (cand_of b name))
    b.closure;
  List.iter (fun name -> ord := -p_var b name :: !ord) b.closure;
  List.rev !ord

(* ------------------------------------------------------------------ *)
(* Variant certainty analysis                                          *)

type vval = Known of bool | Unknown

let user_variant b pname vn =
  if pname = b.abstract.Ast.root.Ast.name then
    Smap.find_opt vn b.abstract.Ast.root.Ast.variants
  else
    match Smap.find_opt pname b.abstract.Ast.deps with
    | Some n -> Smap.find_opt vn n.Ast.variants
    | None -> None

let variant_value b ~transfer pname vn =
  match user_variant b pname vn with
  | Some v -> Known v
  | None -> (
      match Smap.find_opt vn transfer with
      | Some v -> Known v
      | None ->
          if Hashtbl.mem b.maybe (pname, vn) then Unknown
          else
            let policy =
              List.assoc_opt vn
                (Policy.variant_preference b.ctx.config ~package:pname)
            in
            let default () =
              List.assoc_opt vn (Package.variant_defaults (pkg_of b pname))
            in
            (match policy with Some v -> Some v | None -> default ())
            |> function
            | Some v -> Known v
            | None -> Unknown)

(* When is a conditional dep of [pname] active?
   [None] — skip: predicate is certainly false, or not statically
   decidable (relaxation; the greedy oracle still enforces it).
   [Some None] — unconditionally active.
   [Some (Some vl)] — active exactly when the depender's version ∈ vl. *)
let dep_activation b ~transfer pname (d : Package.dep) =
  match d.Package.d_when with
  | None -> Some None
  | Some pred ->
      let pr = pred.Ast.root in
      if not (Smap.is_empty pred.Ast.deps) then None
      else if pr.Ast.compiler <> None || pr.Ast.arch <> None then None
      else
        let vars_ok =
          Smap.for_all
            (fun vn want ->
              match variant_value b ~transfer pname vn with
              | Known v -> v = want
              | Unknown -> false)
            pr.Ast.variants
        in
        if not vars_ok then None
        else if Vlist.is_any pr.Ast.versions then Some None
        else Some (Some pr.Ast.versions)

(* ------------------------------------------------------------------ *)
(* Clause emission                                                     *)

let rec emit_dep b ~depth ~gates ~transfer pname (d : Package.dep) =
  match dep_activation b ~transfer pname d with
  | None -> ()
  | Some vcond ->
      let gate_sets =
        match vcond with
        | None -> [ gates ]
        | Some vl ->
            cand_of b pname
            |> List.filter (fun v -> Vlist.mem v vl)
            |> List.map (fun v -> gates @ [ -v_var b pname v ])
      in
      List.iter (fun gates -> emit_dep_target b ~depth ~gates pname d) gate_sets

and emit_dep_target b ~depth ~gates pname (d : Package.dep) =
  let target = d.Package.d_spec.Ast.root in
  let tname = target.Ast.name in
  let why =
    Printf.sprintf "%s depends on %s" pname (Printer.node_to_string target)
  in
  (if Provider_index.is_virtual b.ctx.index tname then
     emit_vreq b ~depth ~gates ~why target
   else if Hashtbl.mem b.closure_set tname then begin
     emit b (gates @ [ p_var b tname ]) why;
     if not (Vlist.is_any target.Ast.versions) then
       List.iter
         (fun v ->
           if not (Vlist.mem v target.Ast.versions) then
             emit b (gates @ [ -v_var b tname v ]) why)
         (cand_of b tname)
   end
   else
     (* active dep on a package the repository does not know *)
     emit b gates (Printf.sprintf "%s depends on unknown package %s" pname tname));
  Smap.iter
    (fun dn c ->
      if Hashtbl.mem b.closure_set dn && not (Vlist.is_any c.Ast.versions)
      then
        List.iter
          (fun v ->
            if not (Vlist.mem v c.Ast.versions) then
              emit b
                (gates @ [ -v_var b dn v ])
                (Printf.sprintf "constraint from %s (depends_on %s)" pname
                   (Printer.node_to_string c)))
          (cand_of b dn))
    d.Package.d_spec.Ast.deps

and emit_vreq b ~depth ~gates ~why (req : Ast.node) =
  let virt = req.Ast.name in
  let entries = Provider_index.providers b.ctx.index virt in
  let prs = ranked_providers b virt in
  emit b (gates @ List.map (fun pr -> prov_var b virt pr) prs) why;
  List.iter
    (fun pr ->
      let pv = prov_var b virt pr in
      let pkg = pkg_of b pr in
      (* required interface variants must exist on (and agree with) the
         provider — the §4.5 lever: a provider lacking the variant is
         excluded by propagation, no backtracking needed *)
      Smap.iter
        (fun vn want ->
          if Package.find_variant pkg vn = None then
            emit b
              (gates @ [ -pv ])
              (Printf.sprintf "%s does not declare variant %s" pr vn)
          else
            match user_variant b pr vn with
            | Some uv when uv <> want ->
                emit b
                  (gates @ [ -pv ])
                  (Printf.sprintf
                     "%s is pinned %c%s by the user spec, but %s requires %c%s"
                     pr
                     (if uv then '+' else '~')
                     vn virt
                     (if want then '+' else '~')
                     vn)
            | _ -> ())
        req.Ast.variants;
      (* per-version interface compatibility: a provider version must
         have a provides entry whose interface versions intersect the
         requirement (non-version when-parts are relaxed to true) *)
      let entries_pr =
        List.filter (fun e -> e.Provider_index.e_provider = pr) entries
      in
      List.iter
        (fun v ->
          let admissible =
            List.exists
              (fun e ->
                let when_ok =
                  match e.Provider_index.e_when with
                  | None -> true
                  | Some w ->
                      Vlist.is_any w.Ast.root.Ast.versions
                      || Vlist.mem v w.Ast.root.Ast.versions
                in
                when_ok
                && Vlist.intersects e.Provider_index.e_provided.Ast.versions
                     req.Ast.versions)
              entries_pr
          in
          if not admissible then
            emit b
              (gates @ [ -pv; -v_var b pr v ])
              (Printf.sprintf "%s@%s cannot provide %s" pr
                 (Version.to_string v)
                 (Printer.node_to_string req)))
        (cand_of b pr);
      (* requirement variants transfer to the chosen provider and can
         activate its conditional deps (bounded recursion) *)
      if depth < 3 && not (Smap.is_empty req.Ast.variants) then
        List.iter
          (fun (d : Package.dep) ->
            match d.Package.d_when with
            | Some pred
              when Smap.exists
                     (fun vn _ -> Smap.mem vn req.Ast.variants)
                     pred.Ast.root.Ast.variants ->
                emit_dep b ~depth:(depth + 1)
                  ~gates:(gates @ [ -pv ])
                  ~transfer:req.Ast.variants pr d
            | _ -> ())
          pkg.Package.p_dependencies)
    prs

(* The user asked for [^name] on a real package: it must be justified —
   pulled in as some package's dependency or chosen as a provider of a
   required virtual. Without this, a model could "include" the package
   with no DAG edge leading to it, which greedy rejects as
   Unused_constraint. *)
let emit_justification b name =
  let pkg = pkg_of b name in
  let prov_lits =
    List.filter_map
      (fun (p : Package.provide) ->
        let virt = p.Package.pv_spec.Ast.name in
        if Hashtbl.mem b.virt_set virt then Some (prov_var b virt name)
        else None)
      pkg.Package.p_provides
    |> List.sort_uniq compare
  in
  let depender_lits =
    List.filter_map
      (fun q ->
        if q = name then None
        else
          let qp = pkg_of b q in
          if
            List.exists
              (fun (d : Package.dep) ->
                d.Package.d_spec.Ast.root.Ast.name = name)
              qp.Package.p_dependencies
          then Some (p_var b q)
          else None)
      b.closure
  in
  emit b (prov_lits @ depender_lits)
    (Printf.sprintf
       "^%s must be pulled in as a dependency or chosen as a provider" name)

let emit_user b =
  let root = b.abstract.Ast.root in
  let rname = root.Ast.name in
  let is_virt = Provider_index.is_virtual b.ctx.index in
  let user_real (n : Ast.node) =
    let name = n.Ast.name in
    if Hashtbl.mem b.closure_set name then begin
      let why =
        Printf.sprintf "the user spec requests %s" (Printer.node_to_string n)
      in
      emit b [ p_var b name ] why;
      if not (Vlist.is_any n.Ast.versions) then
        List.iter
          (fun v ->
            if not (Vlist.mem v n.Ast.versions) then
              emit b [ -v_var b name v ] why)
          (cand_of b name)
    end
    else emit b [] (Printf.sprintf "unknown package: %s" name)
  in
  (if is_virt rname then
     emit_vreq b ~depth:0 ~gates:[]
       ~why:
         (Printf.sprintf "the user spec requests %s"
            (Printer.node_to_string root))
       root
   else user_real root);
  Smap.iter
    (fun name c ->
      if is_virt name then
        emit_vreq b ~depth:0 ~gates:[]
          ~why:
            (Printf.sprintf "the user spec requests ^%s"
               (Printer.node_to_string c))
          c
      else begin
        user_real c;
        if name <> rname && Hashtbl.mem b.closure_set name then
          emit_justification b name
      end)
    b.abstract.Ast.deps

let emit_deps b =
  List.iter
    (fun pname ->
      let pkg = pkg_of b pname in
      let gates = [ -p_var b pname ] in
      List.iter
        (emit_dep b ~depth:0 ~gates ~transfer:Smap.empty pname)
        pkg.Package.p_dependencies)
    b.closure

(* The architecture every node takes when nothing pins one: the root
   takes the site default and each dependency inherits its parent's
   (Concretizer), so unless the user spec or a dependency directive in
   the closure names an arch, it is statically certain. *)
let certain_arch b =
  let pins (s : Ast.t) =
    s.Ast.root.Ast.arch <> None
    || Smap.exists (fun _ (n : Ast.node) -> n.Ast.arch <> None) s.Ast.deps
  in
  let directive_pins name =
    List.exists
      (fun (d : Package.dep) -> pins d.Package.d_spec)
      (pkg_of b name).Package.p_dependencies
  in
  if pins b.abstract || List.exists directive_pins b.closure then None
  else Some (Policy.default_arch b.ctx.config)

(* Unconditional conflicts directives over versions and a statically
   certain arch translate exactly; anything else is left to the greedy
   oracle. *)
let emit_conflicts b =
  let arch = lazy (certain_arch b) in
  List.iter
    (fun pname ->
      let pkg = pkg_of b pname in
      List.iter
        (fun (c : Package.conflict_decl) ->
          let n = c.Package.cf_spec in
          let why =
            Printf.sprintf "%s conflicts with %s" pname
              (Printer.node_to_string n)
          in
          if
            c.Package.cf_when = None
            && Smap.is_empty n.Ast.variants
            && n.Ast.compiler = None
            && (n.Ast.arch = None || n.Ast.arch = Lazy.force arch)
          then
            if Vlist.is_any n.Ast.versions then emit b [ -p_var b pname ] why
            else
              List.iter
                (fun v ->
                  if Vlist.mem v n.Ast.versions then
                    emit b [ -v_var b pname v ] why)
                (cand_of b pname))
        pkg.Package.p_conflicts)
    b.closure

let emit_structural b =
  List.iter
    (fun pname ->
      let pv = p_var b pname in
      let cands = cand_of b pname in
      (match cands with
      | [] ->
          emit b [ -pv ] (Printf.sprintf "%s has no known versions" pname)
      | _ ->
          emit b
            (-pv :: List.map (fun v -> v_var b pname v) cands)
            (Printf.sprintf "%s must take one of its known versions" pname));
      let rec pairs = function
        | [] -> ()
        | v :: rest ->
            List.iter
              (fun w ->
                emit b
                  [ -v_var b pname v; -v_var b pname w ]
                  (Printf.sprintf "%s takes at most one version" pname))
              rest;
            pairs rest
      in
      pairs cands;
      List.iter
        (fun v ->
          emit b
            [ -v_var b pname v; pv ]
            (Printf.sprintf "a version choice for %s implies %s is in the DAG"
               pname pname))
        cands)
    b.closure;
  List.iter
    (fun virt ->
      let prs = ranked_providers b virt in
      let rec pairs = function
        | [] -> ()
        | a :: rest ->
            List.iter
              (fun c ->
                emit b
                  [ -prov_var b virt a; -prov_var b virt c ]
                  (Printf.sprintf "%s has at most one provider" virt))
              rest;
            pairs rest
      in
      pairs prs;
      List.iter
        (fun pr ->
          emit b
            [ -prov_var b virt pr; p_var b pr ]
            (Printf.sprintf "choosing %s as the %s provider puts %s in the DAG"
               pr virt pr))
        prs)
    b.virts

let encode ctx abstract =
  let b =
    {
      ctx;
      abstract;
      vars = Hashtbl.create 64;
      rkinds = [];
      nv = 0;
      rclauses = [];
      rreasons = [];
      nreasons = 0;
      cand = Hashtbl.create 32;
      extra_points = Hashtbl.create 16;
      maybe = Hashtbl.create 32;
      closure = [];
      closure_set = Hashtbl.create 32;
      virts = [];
      virt_set = Hashtbl.create 8;
    }
  in
  compute_closure b;
  let ord = make_vars b in
  emit_user b;
  emit_deps b;
  emit_conflicts b;
  emit_structural b;
  let kinds = Array.make (b.nv + 1) (Present "") in
  List.iteri
    (fun i k -> kinds.(b.nv - i) <- k)
    b.rkinds;
  {
    nvars = b.nv;
    kinds;
    cl = List.rev b.rclauses;
    reasons = Array.of_list (List.rev b.rreasons);
    ord;
  }

(* ------------------------------------------------------------------ *)
(* Model and core translation                                          *)

let decisions_of_model t model =
  let ds = ref [] in
  for v = t.nvars downto 1 do
    if model.(v) then
      match t.kinds.(v) with
      | Provider_is (virt, pr) -> ds := ("provider:" ^ virt, pr) :: !ds
      | Version_is (p, ver) ->
          ds := ("version:" ^ p, Version.to_string ver) :: !ds
      | Present _ -> ()
  done;
  !ds

let blocking_lits t model =
  let ls = ref [] in
  for v = 1 to t.nvars do
    if model.(v) then
      match t.kinds.(v) with
      | Provider_is _ | Version_is _ -> ls := v :: !ls
      | Present _ -> ()
  done;
  List.rev !ls

let render_core t origins =
  let sorted = List.sort_uniq compare origins in
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun o ->
      if o < 0 || o >= Array.length t.reasons then None
      else
        let r = t.reasons.(o) in
        if Hashtbl.mem seen r then None
        else begin
          Hashtbl.add seen r ();
          Some r
        end)
    sorted
