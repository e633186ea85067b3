module Ast = Ospack_spec.Ast
module Printer = Ospack_spec.Printer
module Package = Ospack_package.Package
module Repository = Ospack_package.Repository
module Provider_index = Ospack_package.Provider_index
module Policy = Ospack_config.Policy
module Version = Ospack_version.Version
module Vlist = Ospack_version.Vlist
module Smap = Ast.Smap
module I = Concretizer_intf

type var_kind =
  | Present of string
  | Version_is of string * Version.t
  | Provider_is of string * string

type t = {
  nvars : int;
  kinds : var_kind array;  (* 1-based; index 0 unused *)
  cl : (int list * int) list;  (* (lits, origin), emission order *)
  reasons : string Lazy.t array Lazy.t;
      (* origin id -> rendering; the array is built, and each reason
         rendered, only when a reason is asked for *)
  ord : int list;
}

let nvars t = t.nvars
let clause_list t = t.cl
let order t = t.ord
let reason t o = Lazy.force (Lazy.force t.reasons).(o)

let var_to_string t v =
  match t.kinds.(v) with
  | Present p -> Printf.sprintf "P(%s)" p
  | Version_is (p, ver) -> Printf.sprintf "V(%s@%s)" p (Version.to_string ver)
  | Provider_is (virt, pr) -> Printf.sprintf "Prov(%s=%s)" virt pr

(* ------------------------------------------------------------------ *)
(* Per-context facts (see Concretizer_intf.fact)                       *)

let no_prefs = { I.site_versions = None; variants = [] }

let package_prefs (ctx : I.ctx) name =
  match Hashtbl.find_opt (Lazy.force ctx.facts) name with
  | Some (I.Package_prefs prefs) -> prefs
  | Some (I.Providers _) | None -> no_prefs

let site_providers (ctx : I.ctx) virt =
  let facts = Lazy.force ctx.facts in
  match Hashtbl.find_opt facts virt with
  | Some (I.Providers prs) -> prs
  | Some (I.Package_prefs _) | None ->
      let site = Policy.rank_provider ctx.config ~virtual_:virt in
      let prs =
        Provider_index.providers ctx.index virt
        |> List.map (fun e -> e.Provider_index.e_provider)
        |> List.sort_uniq String.compare
        |> List.map (fun pr -> (site pr, pr))
        |> List.sort compare |> List.map snd |> Array.of_list
      in
      Hashtbl.replace facts virt (I.Providers prs);
      prs

(* ------------------------------------------------------------------ *)
(* Builder                                                             *)

(* A package of the closure. Its variables are fixed by [make_vars]. *)
type slot = {
  pkg : Package.t;
  prefs : I.prefs;
  mutable cands : (Version.t * int) list;
      (* candidate versions, best first, each with its V variable *)
  mutable pvar : int;  (* its P variable *)
}

type builder = {
  ctx : I.ctx;
  abstract : Ast.t;
  mutable rkinds : var_kind list;  (* reversed *)
  mutable nv : int;
  mutable rclauses : (int list * int) list;  (* reversed *)
  mutable rreasons : string Lazy.t list;  (* reversed *)
  mutable nreasons : int;
  extra_points : (string, Version.t list) Hashtbl.t;
  maybe : (string * string, unit) Hashtbl.t;
      (* (pkg, variant) pairs some spec might pin: their value is not
         statically certain, so predicates over them are relaxed *)
  mutable closure : string list;  (* reversed during build *)
  slots : (string, slot) Hashtbl.t;  (* the closure's packages *)
  mutable virts : string list;  (* reversed during build *)
  virt_set : (string, unit) Hashtbl.t;
  provs : (string, (string * int) list) Hashtbl.t;
      (* virtual -> ranked providers, each with its Prov variable *)
}

let new_var b kind =
  b.nv <- b.nv + 1;
  b.rkinds <- kind :: b.rkinds;
  b.nv

let emit b lits why =
  let o = b.nreasons in
  b.nreasons <- o + 1;
  b.rreasons <- why :: b.rreasons;
  b.rclauses <- (lits, o) :: b.rclauses

let in_closure b name = Hashtbl.mem b.slots name

let slot b name =
  match Hashtbl.find_opt b.slots name with
  | Some s -> s
  | None -> invalid_arg ("Clauses: package not in closure: " ^ name)

let pkg_of b name = (slot b name).pkg
let p_var b name = (slot b name).pvar
let cands b name = (slot b name).cands

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
    if not (in_closure b name) then
      match Repository.find b.ctx.repo name with
      | Some pkg ->
          let prefs = package_prefs b.ctx name in
          Hashtbl.add b.slots name { pkg; prefs; cands = []; pvar = 0 };
          b.closure <- name :: b.closure;
          Queue.add pkg q
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
    let pkg = Queue.pop q in
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

(* A virtual's providers in the closure, ranked: those the user spec
   names first, then site order. Their Prov variables are created on
   the first call, in rank order. *)
let providers b virt =
  match Hashtbl.find_opt b.provs virt with
  | Some prs -> prs
  | None ->
      let forced, rest =
        Array.fold_right
          (fun pr acc -> if in_closure b pr then pr :: acc else acc)
          (site_providers b.ctx virt) []
        |> List.partition (fun pr -> Smap.mem pr b.abstract.Ast.deps)
      in
      let prs =
        List.map
          (fun pr -> (pr, new_var b (Provider_is (virt, pr))))
          (forced @ rest)
      in
      Hashtbl.add b.provs virt prs;
      prs

let prov_var b virt pr =
  match List.assoc_opt pr (providers b virt) with
  | Some v -> v
  | None -> invalid_arg ("Clauses: " ^ pr ^ " does not provide " ^ virt)

let make_vars b =
  (* creation in decision order: providers, versions, presence *)
  let ord = ref [] in
  List.iter
    (fun virt ->
      List.iter (fun (_, pv) -> ord := pv :: !ord) (providers b virt))
    b.virts;
  List.iter
    (fun name ->
      let s = slot b name in
      let base =
        Concretizer.rank_versions ~site_pref:s.prefs.I.site_versions s.pkg
          Vlist.any
      in
      let extra =
        Option.value (Hashtbl.find_opt b.extra_points name) ~default:[]
        |> List.filter (fun v -> not (List.exists (Version.equal v) base))
      in
      s.cands <-
        List.map
          (fun v ->
            let vv = new_var b (Version_is (name, v)) in
            ord := vv :: !ord;
            (v, vv))
          (base @ extra))
    b.closure;
  List.iter
    (fun name ->
      let s = slot b name in
      s.pvar <- new_var b (Present name);
      ord := -s.pvar :: !ord)
    b.closure;
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
            let policy = List.assoc_opt vn (slot b pname).prefs.I.variants in
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
(* Clause emission. Every reason is a lazy rendering: it is formatted
   only if a core or a caller asks for it.                             *)

(* [gates @ [ -V(name, v) ]] for each candidate [v] of [name] outside [vl] *)
let exclude_outside b ~gates name vl why =
  List.iter
    (fun (v, vv) -> if not (Vlist.mem v vl) then emit b (gates @ [ -vv ]) why)
    (cands b name)

let rec emit_dep b ~depth ~gates ~transfer pname (d : Package.dep) =
  match dep_activation b ~transfer pname d with
  | None -> ()
  | Some None -> emit_dep_target b ~depth ~gates pname d
  | Some (Some vl) ->
      List.iter
        (fun (v, vv) ->
          if Vlist.mem v vl then
            emit_dep_target b ~depth ~gates:(gates @ [ -vv ]) pname d)
        (cands b pname)

and emit_dep_target b ~depth ~gates pname (d : Package.dep) =
  let target = d.Package.d_spec.Ast.root in
  let tname = target.Ast.name in
  let why =
    lazy
      (Printf.sprintf "%s depends on %s" pname (Printer.node_to_string target))
  in
  (if Provider_index.is_virtual b.ctx.index tname then
     emit_vreq b ~depth ~gates ~why target
   else if in_closure b tname then begin
     emit b (gates @ [ p_var b tname ]) why;
     if not (Vlist.is_any target.Ast.versions) then
       exclude_outside b ~gates tname target.Ast.versions why
   end
   else
     (* active dep on a package the repository does not know *)
     emit b gates
       (lazy
         (Printf.sprintf "%s depends on unknown package %s" pname tname)));
  Smap.iter
    (fun dn c ->
      if in_closure b dn && not (Vlist.is_any c.Ast.versions) then
        exclude_outside b ~gates dn c.Ast.versions
          (lazy
            (Printf.sprintf "constraint from %s (depends_on %s)" pname
               (Printer.node_to_string c))))
    d.Package.d_spec.Ast.deps

and emit_vreq b ~depth ~gates ~why (req : Ast.node) =
  let virt = req.Ast.name in
  let entries = Provider_index.providers b.ctx.index virt in
  let prs = providers b virt in
  emit b (gates @ List.map snd prs) why;
  List.iter
    (fun (pr, pv) ->
      let pkg = pkg_of b pr in
      (* required interface variants must exist on (and agree with) the
         provider — the §4.5 lever: a provider lacking the variant is
         excluded by propagation, no backtracking needed *)
      Smap.iter
        (fun vn want ->
          if Package.find_variant pkg vn = None then
            emit b
              (gates @ [ -pv ])
              (lazy (Printf.sprintf "%s does not declare variant %s" pr vn))
          else
            match user_variant b pr vn with
            | Some uv when uv <> want ->
                emit b
                  (gates @ [ -pv ])
                  (lazy
                    (Printf.sprintf
                       "%s is pinned %c%s by the user spec, but %s requires \
                        %c%s"
                       pr
                       (if uv then '+' else '~')
                       vn virt
                       (if want then '+' else '~')
                       vn))
            | _ -> ())
        req.Ast.variants;
      (* per-version interface compatibility: a provider version must
         have a provides entry whose interface versions intersect the
         requirement (non-version when-parts are relaxed to true) *)
      let entries_pr =
        List.filter (fun e -> e.Provider_index.e_provider = pr) entries
      in
      List.iter
        (fun (v, vv) ->
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
              (gates @ [ -pv; -vv ])
              (lazy
                (Printf.sprintf "%s@%s cannot provide %s" pr
                   (Version.to_string v)
                   (Printer.node_to_string req))))
        (cands b pr);
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
    |> List.sort_uniq Int.compare
  in
  let depender_lits =
    List.filter_map
      (fun q ->
        if q = name then None
        else if
          List.exists
            (fun (d : Package.dep) -> d.Package.d_spec.Ast.root.Ast.name = name)
            (pkg_of b q).Package.p_dependencies
        then Some (p_var b q)
        else None)
      b.closure
  in
  emit b (prov_lits @ depender_lits)
    (lazy
      (Printf.sprintf
         "^%s must be pulled in as a dependency or chosen as a provider" name))

let emit_user b =
  let root = b.abstract.Ast.root in
  let rname = root.Ast.name in
  let is_virt = Provider_index.is_virtual b.ctx.index in
  let user_real (n : Ast.node) =
    let name = n.Ast.name in
    if in_closure b name then begin
      let why =
        lazy
          (Printf.sprintf "the user spec requests %s"
             (Printer.node_to_string n))
      in
      emit b [ p_var b name ] why;
      if not (Vlist.is_any n.Ast.versions) then
        exclude_outside b ~gates:[] name n.Ast.versions why
    end
    else emit b [] (lazy (Printf.sprintf "unknown package: %s" name))
  in
  (if is_virt rname then
     emit_vreq b ~depth:0 ~gates:[]
       ~why:
         (lazy
           (Printf.sprintf "the user spec requests %s"
              (Printer.node_to_string root)))
       root
   else user_real root);
  Smap.iter
    (fun name c ->
      if is_virt name then
        emit_vreq b ~depth:0 ~gates:[]
          ~why:
            (lazy
              (Printf.sprintf "the user spec requests ^%s"
                 (Printer.node_to_string c)))
          c
      else begin
        user_real c;
        if name <> rname && in_closure b name then emit_justification b name
      end)
    b.abstract.Ast.deps

let emit_deps b =
  List.iter
    (fun pname ->
      let s = slot b pname in
      let gates = [ -s.pvar ] in
      List.iter
        (emit_dep b ~depth:0 ~gates ~transfer:Smap.empty pname)
        s.pkg.Package.p_dependencies)
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
      let s = slot b pname in
      List.iter
        (fun (c : Package.conflict_decl) ->
          let n = c.Package.cf_spec in
          if
            c.Package.cf_when = None
            && Smap.is_empty n.Ast.variants
            && n.Ast.compiler = None
            && (n.Ast.arch = None || n.Ast.arch = Lazy.force arch)
          then
            let why =
              lazy
                (Printf.sprintf "%s conflicts with %s" pname
                   (Printer.node_to_string n))
            in
            if Vlist.is_any n.Ast.versions then emit b [ -s.pvar ] why
            else
              List.iter
                (fun (v, vv) ->
                  if Vlist.mem v n.Ast.versions then emit b [ -vv ] why)
                s.cands)
        s.pkg.Package.p_conflicts)
    b.closure

(* at-most-one over [lits]: a clause per pair, all sharing [why] *)
let rec emit_pairs b lits why =
  match lits with
  | [] -> ()
  | x :: rest ->
      List.iter (fun y -> emit b [ -x; -y ] why) rest;
      emit_pairs b rest why

let emit_structural b =
  List.iter
    (fun pname ->
      let s = slot b pname in
      let pv = s.pvar in
      let vvs = List.map snd s.cands in
      (match vvs with
      | [] ->
          emit b [ -pv ]
            (lazy (Printf.sprintf "%s has no known versions" pname))
      | _ ->
          emit b (-pv :: vvs)
            (lazy
              (Printf.sprintf "%s must take one of its known versions" pname)));
      emit_pairs b vvs
        (lazy (Printf.sprintf "%s takes at most one version" pname));
      let implies =
        lazy
          (Printf.sprintf "a version choice for %s implies %s is in the DAG"
             pname pname)
      in
      List.iter (fun vv -> emit b [ -vv; pv ] implies) vvs)
    b.closure;
  List.iter
    (fun virt ->
      let prs = providers b virt in
      emit_pairs b (List.map snd prs)
        (lazy (Printf.sprintf "%s has at most one provider" virt));
      List.iter
        (fun (pr, pv) ->
          emit b
            [ -pv; p_var b pr ]
            (lazy
              (Printf.sprintf
                 "choosing %s as the %s provider puts %s in the DAG" pr virt pr)))
        prs)
    b.virts

(* [List.rev_map] into an array without [Array.of_list]: the array is
   created from [dummy] (an old value), so a large array of young
   elements never forces a minor collection *)
let array_of_rev n dummy rev =
  let a = Array.make n dummy in
  List.iteri (fun i x -> a.(n - 1 - i) <- x) rev;
  a

let encode ctx abstract =
  let b =
    {
      ctx;
      abstract;
      rkinds = [];
      nv = 0;
      rclauses = [];
      rreasons = [];
      nreasons = 0;
      extra_points = Hashtbl.create 16;
      maybe = Hashtbl.create 16;
      closure = [];
      slots = Hashtbl.create 32;
      virts = [];
      virt_set = Hashtbl.create 8;
      provs = Hashtbl.create 8;
    }
  in
  compute_closure b;
  let ord = make_vars b in
  emit_user b;
  emit_deps b;
  emit_conflicts b;
  emit_structural b;
  let kinds = array_of_rev (b.nv + 1) (Present "") b.rkinds in
  let n = b.nreasons and rreasons = b.rreasons in
  {
    nvars = b.nv;
    kinds;
    cl = List.rev b.rclauses;
    reasons = lazy (array_of_rev n (Lazy.from_val "") rreasons);
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
  let reasons = Lazy.force t.reasons in
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun o ->
      if o < 0 || o >= Array.length reasons then None
      else
        let r = Lazy.force reasons.(o) in
        if Hashtbl.mem seen r then None
        else begin
          Hashtbl.add seen r ();
          Some r
        end)
    (List.sort_uniq Int.compare origins)
