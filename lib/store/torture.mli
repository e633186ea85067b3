(** Crash-consistency torture for the store.

    The store's {!Ospack_vfs.Vfs.crash_sweep}: the operation installs the
    given concrete specs on a fresh in-memory filesystem, killed at every
    selected write barrier; the check opens the crashed store with a
    fresh installer ({!Installer.load_index}: record merge + pending-marker
    recovery) and holds three invariants:

    + the reloaded index is a subset of the completed run's records
      (prefix-of-completed-store);
    + no file or symlink outside [.spack-db] survives outside a loaded
      record's prefix (no unindexed orphans);
    + re-running the install converges to an index and store tree
      ({!Ospack_vfs.Vfs.snapshot}) byte-identical to the reference.

    Any violation aborts with an [Error] naming the kill point. *)

type report = {
  tr_jobs : int;
  tr_specs : int;
  tr_barriers : int;  (** write barriers in the reference run *)
  tr_kills : int;  (** kill points exercised *)
  tr_orphans : int;  (** orphan prefixes recovery deleted, summed over kills *)
  tr_lost_nodes : int;
      (** index records lost to crashes (and reinstalled), summed over kills *)
}

val report_to_string : report -> string

val run :
  ?jobs:int ->
  ?every:int ->
  ?config:Ospack_config.Config.t ->
  repo:Ospack_package.Repository.t ->
  compilers:Ospack_config.Compilers.t ->
  Ospack_spec.Concrete.t list ->
  (report, string) result
(** Torture the install of [specs] through {!Installer.install_parallel}
    at [jobs] workers (default 1; [jobs < 1] is an error); [every]
    (default 1; [every < 1] is the error ["torture: every must be >= 1"])
    kills at every [every]-th barrier — a sampling knob for smoke gates;
    [config] is passed through to each installer (externals etc.). The
    reference run must succeed, and every armed replay must fail — a
    crash plan that an install survives is itself an error. *)
