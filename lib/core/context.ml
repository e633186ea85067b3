module Vfs = Ospack_vfs.Vfs
module Config = Ospack_config.Config
module Repository = Ospack_package.Repository
module Compilers = Ospack_config.Compilers
module Concretizer = Ospack_concretize.Concretizer
module Ccache = Ospack_concretize.Ccache
module Backends = Ospack_concretize.Backends
module Installer = Ospack_store.Installer
module Fsmodel = Ospack_buildsim.Fsmodel
module Layout = Ospack_layout.Layout
module Universe = Ospack_repo.Universe
module Buildcache = Ospack_store.Buildcache
module Obs = Ospack_obs.Obs
module Json = Ospack_json.Json

type t = {
  vfs : Vfs.t;
  config : Config.t;
  repo : Repository.t;
  compilers : Compilers.t;
  cctx : Concretizer.ctx;
  backend : Backends.t;
  installer : Installer.t;
  cache : Buildcache.t option;
  ccache : Ccache.t;
  ccache_path : string;
  obs : Obs.t;
  module_root : string;
}

(* the cache depends on the repository, toolchains, config and backend,
   never on the store, so it lives outside every install tree *)
let ccache_root = "/ospack/cache/concretize"

let create ?config ?repo ?compilers ?fs ?scheme
    ?(install_root = "/ospack/opt") ?cache_root ?ccache_json ?vfs
    ?(obs = Obs.disabled) ?(backend = Backends.Greedy) () =
  let config = Option.value config ~default:Universe.default_config in
  let repo =
    match repo with Some r -> r | None -> Universe.repository ()
  in
  let compilers = Option.value compilers ~default:Universe.compilers in
  let vfs = match vfs with Some v -> v | None -> Vfs.create () in
  let cctx = Concretizer.make_ctx ~config ~obs ~compilers repo in
  let cache =
    Option.map (fun root -> Buildcache.create vfs ~root) cache_root
  in
  let installer =
    Installer.create ?fs ?scheme ~install_root ~config ?cache ~obs ~vfs ~repo
      ~compilers ()
  in
  let cx =
    Ccache.context ~backend:(Backends.to_string backend)
      ~providers:cctx.Concretizer.index ~repo ~compilers ~config ()
  in
  let ccache = Ccache.create ~obs ~dir:(vfs, ccache_root) ~context:cx () in
  (* an imported cache (from a previous process) is validated eagerly and
     its survivors are persisted like fresh entries, so every context on
     this filesystem can read them back *)
  (match ccache_json with
  | None -> ()
  | Some json ->
      Ccache.import ccache json;
      ignore (Ccache.save ccache));
  { vfs; config; repo; compilers; cctx; backend; installer; cache; ccache;
    ccache_path = ccache_root; obs; module_root = "/ospack/modules" }

let save_ccache t =
  (* best-effort: a failed persist never fails the command that
     concretized (the in-memory cache is still authoritative) *)
  ignore (Ccache.save t.ccache)

let export_ccache t = Json.to_string ~indent:2 (Ccache.to_json t.ccache)

let with_site_packages t site_pkgs =
  let site = Repository.create ~name:"site" site_pkgs in
  let repo = Repository.layered [ site; t.repo ] in
  let cctx =
    Concretizer.make_ctx ~config:t.config ~obs:t.obs ~compilers:t.compilers
      repo
  in
  let installer =
    Installer.create ~install_root:(Installer.install_root t.installer)
      ~config:t.config ?cache:t.cache ~obs:t.obs ~vfs:t.vfs ~repo
      ~compilers:t.compilers ()
  in
  (* the package universe changed, so the validation context changes: a
     lookup under it revalidates a persisted entry per its Merkle
     fingerprint before serving it *)
  let cx =
    Ccache.context ~backend:(Backends.to_string t.backend)
      ~providers:cctx.Concretizer.index ~repo ~compilers:t.compilers
      ~config:t.config ()
  in
  let ccache =
    Ccache.create ~obs:t.obs ~dir:(t.vfs, t.ccache_path) ~context:cx ()
  in
  { t with repo; cctx; installer; ccache }
