(** The types every concretizer backend shares.

    The paper's concretizer (§3.4) is one specific algorithm — a greedy
    fixed point where "a decision once taken is never revisited". Spack
    itself later swapped that algorithm for a complete optimizing solver
    without changing what a concretizer {e is}: a function from an
    abstract spec to a concrete spec under a package universe and site
    policy. The solving context and the solve report below are that
    contract; {!Backends.solve_full} dispatches on the backend. *)

(** A package's [packages.<name>.*] settings in the config. *)
type prefs = {
  site_versions : Ospack_version.Vlist.t option;
      (** [packages.<name>.version], parsed *)
  variants : (string * bool) list;  (** [packages.<name>.variants], parsed *)
}

(** The site policy both backends read, kept per context by name (a
    name is a package or a virtual, never both), so a query reads a
    config key or ranks a provider list at most once per context. A
    context's repository and config never change, so a fact stays exact
    for every later query. *)
type fact =
  | Package_prefs of prefs
      (** for each package the config names; every other package has
          none *)
  | Providers of string array
      (** a virtual's providers in site order, added on first use *)

(** The solving context: everything outside the abstract spec that a
    concretization depends on. Shared by every backend (and re-exported
    as {!Concretizer.ctx} for compatibility). Build it with
    {!Concretizer.make_ctx}: [compiler_order] and [facts] are only valid
    for the repository and config they were created with. *)
type ctx = {
  repo : Ospack_package.Repository.t;
  index : Ospack_package.Provider_index.t;
  config : Ospack_config.Config.t;
  compilers : Ospack_config.Compilers.t;
  obs : Ospack_obs.Obs.t;
  compiler_order : Ospack_spec.Ast.compiler_req list;
      (** the config's [compiler_order], parsed once *)
  facts : (string, fact) Hashtbl.t Lazy.t;
      (** built by the first solve that reads a preference or ranks a
          provider, greedy or clause encoding *)
}

module Policy = Ospack_config.Policy
module Provider_index = Ospack_package.Provider_index

(* the per-context facts, seeded with the preferences of every package
   the config names *)
let config_facts config =
  let facts = Hashtbl.create 16 in
  List.iter
    (fun package ->
      Hashtbl.replace facts package
        (Package_prefs
           {
             site_versions = Policy.preferred_versions config ~package;
             variants = Policy.variant_preference config ~package;
           }))
    (Policy.configured_packages config);
  facts

let no_prefs = { site_versions = None; variants = [] }

(** A package's [packages.<name>.*] settings, from the context's facts. *)
let package_prefs ctx name =
  match Hashtbl.find_opt (Lazy.force ctx.facts) name with
  | Some (Package_prefs prefs) -> prefs
  | Some (Providers _) | None -> no_prefs

(** Every provider of a virtual, in site order ([providers.<virtual>]
    position, then name), ranked on the context's first ask. *)
let site_providers ctx virt =
  let facts = Lazy.force ctx.facts in
  match Hashtbl.find_opt facts virt with
  | Some (Providers prs) -> prs
  | Some (Package_prefs _) | None ->
      let site = Policy.rank_provider ctx.config ~virtual_:virt in
      let prs =
        Provider_index.providers ctx.index virt
        |> List.map (fun e -> e.Provider_index.e_provider)
        |> List.sort_uniq String.compare
        |> List.map (fun pr -> (site pr, pr))
        |> List.sort compare |> List.map snd |> Array.of_list
      in
      Hashtbl.replace facts virt (Providers prs);
      prs

(** Search-effort statistics, in the vocabulary of both algorithm
    families. A greedy run reports iterations/runs and its policy
    decisions; the clause solver reports decisions, propagations,
    conflicts and restarts. Fields a backend does not track are 0. *)
type stats = {
  st_decisions : int;  (** choice points taken (greedy or CDCL) *)
  st_propagations : int;  (** unit propagations (clause backend) *)
  st_conflicts : int;  (** conflicts analyzed (clause backend) *)
  st_restarts : int;  (** solver restarts (clause backend) *)
  st_iterations : int;  (** fixed-point iterations (greedy oracle runs) *)
  st_runs : int;
      (** greedy runs: 1 for the greedy backend; for the clause backend,
          its round-0 greedy run plus one oracle replay per candidate
          model *)
}

let empty_stats =
  {
    st_decisions = 0;
    st_propagations = 0;
    st_conflicts = 0;
    st_restarts = 0;
    st_iterations = 0;
    st_runs = 0;
  }

let add_stats a b =
  {
    st_decisions = a.st_decisions + b.st_decisions;
    st_propagations = a.st_propagations + b.st_propagations;
    st_conflicts = a.st_conflicts + b.st_conflicts;
    st_restarts = a.st_restarts + b.st_restarts;
    st_iterations = a.st_iterations + b.st_iterations;
    st_runs = a.st_runs + b.st_runs;
  }

let stats_to_string s =
  Printf.sprintf
    "decisions=%d propagations=%d conflicts=%d restarts=%d greedy_runs=%d \
     iterations=%d"
    s.st_decisions s.st_propagations s.st_conflicts s.st_restarts s.st_runs
    s.st_iterations

(** A full solve report: the result, the effort, and — on failure — the
    human-readable conflict chain (an unsat core for the clause backend,
    the blocked decision path for the greedy one). *)
type outcome = {
  oc_result : (Ospack_spec.Concrete.t, Cerror.t) result;
  oc_stats : stats;
  oc_core : string list;
      (** empty on success; on failure, one line per core/chain element *)
}
