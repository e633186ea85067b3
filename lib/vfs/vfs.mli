(** An in-memory filesystem with directories, files, and symbolic links.

    This is the substrate for install trees, views, extension activation,
    and provenance files. Real Spack manipulates a POSIX filesystem; the
    virtual one keeps the test suite hermetic and lets the build simulator
    charge per-operation latency (NFS vs. node-local tmp, paper §3.5.3) via
    {!counters}.

    All paths are absolute; they are normalized with {!Vpath.normalize}
    on entry. Symlink targets may be absolute or relative to the link's
    directory. Lookups follow symlinks in intermediate components;
    final-component behaviour is documented per function. *)

type t

type kind = File | Dir | Symlink

type error =
  | Not_found of string
  | Not_a_directory of string
  | Is_a_directory of string
  | Already_exists of string
  | Symlink_loop of string
  | Not_a_symlink of string
  | Fault_injected of { fi_op : string; fi_path : string }
      (** An armed fault plan killed this operation (test-only; see
          {!set_fault_plan}). *)
  | Into_own_subtree of { src : string; dst : string }
      (** {!rename} refused to move the directory [src] to [dst] inside
          its own subtree (POSIX [EINVAL]). *)

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

type counters = {
  mutable stat : int;  (** path components traversed *)
  mutable read : int;
  mutable write : int;
  mutable mkdir : int;
  mutable link : int;
  mutable unlink : int;
  mutable readdir : int;
}

val create : unit -> t
(** An empty filesystem containing only the root directory. *)

val counters : t -> counters
(** Live operation counters (shared, mutable). *)

val reset_counters : t -> unit

(** {1 Deterministic fault injection}

    Write barriers are the durability boundaries of the filesystem: one
    per {!write_file} and one per {!rename}, counted 1-based in call
    order. A fault plan kills selected barriers deterministically so
    persistence code can be torture-tested at every boundary. This is a
    test-only hook — production code never arms a plan, and an unarmed
    filesystem behaves identically (the barrier counter still ticks).
    Crash sweeps go through {!crash_sweep}, which arms and disarms the
    plans itself. *)

type fault_mode =
  | Fail_op  (** Only the planned barriers fail (a transient I/O error);
                 later operations succeed again. *)
  | Crash  (** The first planned barrier fails {e before mutating
               anything}, and every subsequent mutating operation
               (write, rename, mkdir, symlink, remove) fails too — the
               process is dead at that boundary, simulating a kill. *)

val set_fault_plan :
  t -> ?mode:fault_mode -> ?on_barrier:(unit -> unit) -> int list -> unit
(** Arm a fault plan: the listed 1-based barrier indices fail (an empty
    list is a count-only plan). Resets {!write_barriers} to 0. The
    [on_barrier] callback fires on every barrier while the plan is armed
    — the hook tests use to mirror the counter into an obs sink without
    making vfs depend on obs. Default mode is {!Fail_op}. *)

val clear_fault_plan : t -> unit
(** Disarm any fault plan; all operations succeed again. *)

val write_barriers : t -> int
(** Write barriers crossed since creation (or since the last
    {!set_fault_plan}). Counts always, plan or no plan. *)

val mkdir_p : t -> string -> (unit, error) result
(** Create a directory and any missing parents. Succeeds if the directory
    already exists; fails with [Not_a_directory] if a file is in the way. *)

val write_file : t -> string -> string -> (unit, error) result
(** Create or overwrite a file, creating parent directories. Fails with
    [Is_a_directory] when the path names a directory. Follows a final
    symlink (writes through it). *)

val read_file : t -> string -> (string, error) result
(** Follows symlinks. *)

val symlink : t -> target:string -> link:string -> (unit, error) result
(** Create a symbolic link at [link] pointing to [target] (which need not
    exist). Parent directories are created. Fails with [Already_exists] if
    anything is already at [link]. *)

val readlink : t -> string -> (string, error) result
(** The raw target of a symlink (no resolution). *)

val resolve : t -> string -> (string, error) result
(** Fully resolve a path, following symlinks everywhere, to the canonical
    path of an existing node. Loop-safe ([Symlink_loop] after 40 hops). *)

val kind_of : t -> string -> kind option
(** Kind of the node at a path {e without} following a final symlink.
    [None] when nothing is there. *)

val exists : t -> string -> bool
(** Does the path resolve (following symlinks) to an existing node? *)

val is_dir : t -> string -> bool
val is_file : t -> string -> bool

val ls : t -> string -> (string list, error) result
(** Sorted entry names of a directory (follows a final symlink). *)

val walk : t -> string -> (string * kind) list
(** All paths strictly under a directory (recursive, depth-first, sorted),
    with their kinds; symlinks are reported, not followed. Empty list when
    the path is not a directory. *)

val snapshot : t -> string -> string list
(** Every node strictly under a directory, in {!walk} order, rendered
    canonically one per element: ["path D"], ["path F content"] or
    ["path L target"]. Two trees hold the same bytes iff their snapshots
    are equal. Empty when the path is not a directory. *)

val rename : t -> src:string -> dst:string -> (unit, error) result
(** Atomically move the node at [src] (file, symlink, or directory — the
    symlink itself, not its target) to [dst], creating [dst]'s parent
    directories. An existing file or symlink at [dst] is replaced in one
    step (the POSIX rename contract behind write-then-rename persistence:
    readers see either the old or the new content, never a partial file).
    A directory at [dst] must be empty and can only be replaced by a
    directory. A directory never moves into its own subtree, symlinks
    followed: that rename is refused as {!Into_own_subtree}, before any
    of [dst]'s parents is created. A directory renamed onto itself
    ([dst] names the same directory, empty or not) succeeds and leaves
    the tree unchanged; like every rename it still crosses one write
    barrier and counts one [write] and one [unlink]. *)

val write_atomic :
  t -> string -> string -> (unit, string * string * error) result
(** [write_atomic fs path content]: the write-then-rename protocol every
    durable file uses — {!write_file} to [path ^ ".tmp"], then {!rename}
    it over [path]. Two write barriers; a kill at either leaves the old
    file or the new one, never a torn one (at worst a stray [.tmp]).
    On failure, returns the step that failed (["write"] or ["rename"]),
    the path it acted on (the [.tmp] or [path]) and the cause. *)

val remove : t -> ?recursive:bool -> string -> (unit, error) result
(** Remove a file, symlink (not its target), or directory. Non-empty
    directories require [~recursive:true]. *)

(** {1 Crash sweeps} *)

type 'a sweep = {
  sw_barriers : int;  (** write barriers the reference run crossed *)
  sw_kills : 'a list;
      (** the check's result at each kill point, in order; its length is
          the number of kill points *)
}

val crash_sweep :
  ?every:int ->
  world:(unit -> t * 'w) ->
  op:('w -> ('r, string) result) ->
  check:(t * 'w * 'r -> kill:int -> t -> 'w -> ('a, string) result) ->
  unit ->
  ('a sweep, string) result
(** Kill [op] at every [every]-th write barrier (default 1) and check what
    the crash left behind — the one harness behind every torture sweep.

    + [world ()] builds a fresh filesystem and whatever [op] acts on;
      barriers are counted from the moment it returns.
    + A count-only reference run on one world must succeed; it crosses
      [B] barriers.
    + [check] is applied once to the reference (its filesystem, world and
      result), so reference snapshots are taken once.
    + For each kill point [k = 1, 1 + every, ... <= B]: a fresh world, a
      {!Crash} plan armed at [k], and [op] must fail. The plan is
      disarmed and the reference-applied check runs on the crashed world:
      it asserts the per-kill invariants, recovers, and returns a per-kill
      result.

    Every error names its kill point (["kill point k: ..."]). [every < 1]
    is rejected before anything runs. *)
