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

(** What the clause encoder keeps per context, by name (a name is a
    package or a virtual, never both). A context's repository and config
    never change, so a fact stays exact for every later query. *)
type fact =
  | Package_prefs of prefs
      (** for each package the config names; every other package has
          none *)
  | Providers of string array
      (** a virtual's providers in site order, added on first use *)

(** The solving context: everything outside the abstract spec that a
    concretization depends on. Shared by every backend (and re-exported
    as {!Concretizer.ctx} for compatibility). Build it with
    {!Concretizer.make_ctx}: [facts] is only valid for the repository and
    config it was created with. *)
type ctx = {
  repo : Ospack_package.Repository.t;
  index : Ospack_package.Provider_index.t;
  config : Ospack_config.Config.t;
  compilers : Ospack_config.Compilers.t;
  obs : Ospack_obs.Obs.t;
  facts : (string, fact) Hashtbl.t Lazy.t;
      (** built by the first clause encoding, so greedy-only contexts
          never build it *)
}

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
