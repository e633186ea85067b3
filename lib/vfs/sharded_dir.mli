(** A set of JSON documents keyed by hash, one file per key at
    [<root>/<2-hex>/<key>.json] (the first two hex characters of the key
    name its shard directory) — the layout of the store index, the
    binary cache and the concretization cache. There is no manifest: the
    directory listing is the key set. Writes go through {!Vfs.write_atomic}, so a kill
    leaves the old document or the new one, at worst plus a stray
    [.tmp] that {!keys} sweeps. *)

val path : root:string -> string -> string
(** Where the document for a key lives. *)

val write :
  Vfs.t ->
  root:string ->
  string ->
  string ->
  (unit, string * string * Vfs.error) result
(** [write vfs ~root key content]: {!Vfs.write_atomic} to
    {!path}; the shard directory is created by the write. *)

val remove :
  Vfs.t ->
  root:string ->
  string ->
  (unit, Vfs.error) result
(** Remove a key's document, and its shard directory once that is empty.
    An absent key is [Ok ()]. *)

val keys : Vfs.t -> root:string -> string list
(** Sorted keys of the documents in the 2-hex shard directories; every
    other name under [root] is ignored. Stray [.tmp] files in the shard
    directories are removed as a side effect. *)
