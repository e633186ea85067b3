(** A binary build cache: installed trees archived by DAG hash, with
    prefix relocation on extraction.

    The paper contrasts Spack's from-source model with binary package
    managers (§2); real Spack later grew exactly this mechanism
    ([spack buildcache]). A cache entry stores the full concrete spec, the
    install root it was built under, and every file of the prefix. Pulling
    into a store with a {e different} install root rewrites embedded
    absolute paths (RPATHs in binaries, path-index files, symlink targets)
    from the old root to the new one — binary relocation, the classic
    obstacle to sharing HPC binaries.

    Entries are content-addressed under [<root>/<2-hex>/<hash>.json], a
    {!Sharded_dir} (the store index's layout), with no manifest: the
    directory listing is the entry set. That is the only layout read (a
    file directly under the root is not an entry). Every entry is written
    via {!Ospack_vfs.Vfs.write_atomic}, so a crash leaves either no entry
    or a complete one; stray [.tmp] files are swept on listing.

    An entry is format 2, laid out like a tarball: one compact JSON header
    line ([format], [install_root], [prefix], [file_count], [spec_bytes]),
    the compact spec JSON and a newline, then one record per file,
    [<kind> <rel_len> <content_len>\n<rel><content>], with [kind] one of
    [dir], [file], [link]. A pull slices each body out of the bytes it
    read and decodes neither bodies nor the spec; any other format is
    refused as [Cache_corrupt "unsupported format N"]. *)

type t

type error =
  | Cache_io of {
      io_op : string;
      io_path : string;
      io_cause : Ospack_vfs.Vfs.error;
    }
      (** the filesystem refused an operation — {!transient} when the
          cause is an injected fault *)
  | Cache_corrupt of { co_path : string; co_reason : string }
      (** the entry exists but cannot be trusted: another format, a
          malformed header or record, missing fields (a [file_count]
          among them), fewer or more records than its recorded count, or
          (on {!extract}) a stored spec other than the one installed *)
  | Cache_missing of string  (** no entry for the hash, on any path *)
  | Bad_prefix of { bp_prefix : string; bp_reason : string }
      (** the prefix offered for archiving is unusable *)

val error_to_string : error -> string

val transient : error -> bool
(** Worth retrying or failing over to another mirror: true exactly for
    fault-injected I/O ({!Ospack_vfs.Vfs.Fault_injected}), never for
    corruption or absence. *)

val create : Ospack_vfs.Vfs.t -> root:string -> t
(** A cache living under [root] on the given filesystem (shared caches use
    a shared filesystem). *)

val root : t -> string

val save :
  t ->
  install_root:string ->
  Database.record ->
  (unit, error) result
(** Archive an installed record's prefix (idempotent per hash). Every
    entry of the prefix walk must archive: an unreadable file or symlink
    is an error (never a silent omission), an empty or missing prefix is
    rejected, and directories are archived too so empty ones survive the
    round trip. The prefix must lie under [install_root] (a reader holds
    the header to the same rule). The entry records its file count and
    every record its lengths, so truncation is detectable at extraction. The entry lands under its [.tmp] name and
    becomes visible only through an atomic rename — a crash at any write
    barrier never leaves a truncated entry behind. *)

val has : t -> hash:string -> bool

val cached_hashes : t -> string list
(** Sorted hashes of the sharded entries ({!Sharded_dir.keys}). Stray
    [.tmp] files from interrupted saves are swept as a side effect. *)

val entry_path : t -> string -> string
(** The sharded on-disk path an entry for this hash would occupy. *)

val relocate : from_root:string -> to_root:string -> string -> string
(** Path-token-boundary-aware textual relocation: an occurrence of
    [from_root] rewrites only when not embedded in a longer path token on
    either side, so [/opt/spack/bin] relocates while the distinct root
    [/opt/spack2] and the mid-path [/usr/opt/spack] are left alone.
    Boundary = any character outside [A-Za-z0-9._+-] or the text edge
    ('/' is a boundary, so path continuations match). *)

val relocate_many : pairs:(string * string) list -> string -> string
(** Several replacements in one left-to-right scan (longest source
    first, no chaining — a replacement's output is never re-matched).
    The scan allocates nothing per byte: partial application to [~pairs]
    builds a first-byte table once, candidates are compared in place, and
    a text with no match is returned as is. *)

val extract :
  t ->
  spec:Ospack_spec.Concrete.t ->
  install_root:string ->
  prefix:string ->
  ((string * string) list, error) result
(** Materialize the cached build of [spec] (the entry under its root
    hash) into [prefix], relocating every embedded occurrence of the
    cached install root to [install_root]. Returns the payload just
    materialized: one [(rel, md5)] per file and symlink outside [.spack],
    taken after relocation by {!Provenance.manifest_entry}, in entry
    order. Entry order is the walk order of the archived prefix, so the
    list equals {!Provenance.payload} of the extracted prefix and the
    installer writes the manifest from it without walking and re-reading
    the prefix.

    The entry is refused ([Cache_corrupt]) unless its stored spec bytes
    equal [spec]'s compact rendering — proof that it holds the DAG being
    installed, at the cost of one render and a byte compare instead of a
    decode — and unless it frames exactly: every record well formed and
    in bounds, exactly [file_count] of them, no trailing bytes. Nothing
    is written before the entry has framed and matched. A pre-existing
    destination holding any path the entry does not list — leftovers
    from a different entry — is cleared wholesale before materializing,
    so stale orphans can never keep resolving under the loader.
    Re-extraction over a matching prefix is idempotent: an existing
    symlink is kept only when its target matches the (relocated) cached
    target; a stale link — or a non-link squatting on the path — is
    removed and re-created. *)

val entry_spec : t -> hash:string -> (Ospack_spec.Concrete.t, error) result
(** The concrete spec stored in an entry, decoded, without materializing
    it: the one reader that decodes a stored spec (splicing starts from
    it). The entry must frame as {!extract} requires. *)

val entry_size : t -> hash:string -> int option
(** Bytes an entry occupies on disk — what a mirror transfer costs. *)

val splice_spec :
  orig:Ospack_spec.Concrete.t ->
  replacement:Ospack_spec.Concrete.t ->
  (Ospack_spec.Concrete.t * string, string) result
(** Build the spliced DAG: the replacement's nodes override the
    original's same-named nodes (bringing any new transitive
    dependencies along), edges and acyclicity re-validate, unreachable
    nodes are pruned, and — because a node's DAG hash covers its
    dependencies' hashes — every node above the replacement recomputes
    its hash automatically. Returns the spliced spec and the
    replacement's root package name. Errors when the original does not
    depend on the replacement's package, when the replacement targets
    the root itself, or when it is already the installed dependency. *)

val splice :
  t ->
  hash:string ->
  install_root:string ->
  prefix:string ->
  prefix_map:(string * string) list ->
  (int * (string * string) list, error) result
(** Materialize the cached entry [hash] into [prefix] with its
    dependency prefixes rewired through [prefix_map]
    [(old installed prefix, new installed prefix)], on top of the usual
    root relocation. Files that parse as simulated ELF objects get a
    structured rewrite — each RPATH entry swaps on exact path-component
    boundaries — and everything else goes through the boundary-aware
    textual pass. Returns the number of binaries whose RPATHs changed,
    and the payload written, as {!extract} returns it. *)
