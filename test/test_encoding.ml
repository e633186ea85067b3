(* The clause encoding's identity gate. Every query of a fixed corpus is
   digested — every variable rendering, the clause list, the decision
   order, every reason, and the clause backend's full outcome (root hash
   or typed error, rendered core, stats) — and the digests must match
   the committed fixture [encoding_fixture.txt]. Any change to the
   encoder that alters variable numbering, clause order, decision order
   or a reason string shows up here, query by query.

   The corpus:
   - every universe package under each of the [forms] below, with the
     site config, an empty config, and the site config plus package
     preferences, kept where the greedy backend fails (the queries the
     clause backend exists for);
   - the e2e solve-conflict pool: the §4.5 hwloc family, the provider
     families k = 2..32 (satisfiable and not), and [gerris ^mpich@1.4].

   Regenerate the fixture (only when an encoding change is intended):
     OSPACK_ENCODING_FIXTURE=test/encoding_fixture.txt \
       dune exec test/test_encoding.exe *)

module Repository = Ospack_package.Repository
module Package = Ospack_package.Package
module Concretizer = Ospack_concretize.Concretizer
module Backends = Ospack_concretize.Backends
module Clauses = Ospack_concretize.Clauses
module I = Ospack_concretize.Concretizer_intf
module Cerror = Ospack_concretize.Cerror
module Concrete = Ospack_spec.Concrete
module Parser = Ospack_spec.Parser
module Config = Ospack_config.Config
module Universe = Ospack_repo.Universe

(* the spec forms, as suffixes to a package name *)
let forms =
  [
    "";
    " ^mpi+hwloc ^hwloc@1.9";
    " ^mpich@1.4";
    " ^mpi@3:";
    " ^openmpi";
    " ^hwloc@1.9";
    " %intel";
  ]

let site_ctx () =
  Concretizer.make_ctx ~config:Universe.default_config
    ~compilers:Universe.compilers (Universe.repository ())

let empty_ctx () =
  Concretizer.make_ctx ~compilers:Universe.compilers (Universe.repository ())

(* the site config plus per-package version and variant preferences *)
let prefs_ctx () =
  let prefs =
    Config.of_assoc
      [
        ("packages.openmpi.version", "1.6.5");
        ("packages.hwloc.version", "1.8");
        ("packages.mvapich2.variants", "+hwloc");
        ("packages.boost.variants", "+mpi");
        ("packages.hdf5.variants", "~mpi");
        ("packages.mpileaks.version", "1.0");
      ]
  in
  Concretizer.make_ctx
    ~config:(Config.layer [ prefs; Universe.default_config ])
    ~compilers:Universe.compilers (Universe.repository ())

(* the e2e solve-conflict provider family: [k] providers of one
   interface; each pins leafdep@1.0 except, when [sat], the last *)
let provider_family ~sat k =
  let open Package in
  let providers =
    List.init k (fun i ->
        make_pkg
          (Printf.sprintf "impl-%02d" i)
          [
            version "1.0";
            provides "iface";
            depends_on
              (if sat && i = k - 1 then "leafdep@2.0" else "leafdep@1.0");
          ])
  in
  Concretizer.make_ctx ~compilers:Universe.compilers
    (Repository.create
       (providers
       @ [
           make_pkg "leafdep" [ version "1.0"; version "2.0" ];
           make_pkg "top"
             [ version "1.0"; depends_on "iface"; depends_on "leafdep@2.0" ];
         ]))

(* [ctx] is shared by every query over the same universe and config, so
   its fact table stays warm; [fresh] builds an equivalent cold one *)
type query = { key : string; ctx : I.ctx; fresh : unit -> I.ctx; spec : string }

let greedy_fails ctx spec =
  Result.is_error
    (Backends.solve Backends.Greedy ctx (Parser.parse_exn spec))

let corpus_queries ~site ~empty ~prefs =
  List.concat_map
    (fun (cname, ctx, fresh) ->
      List.concat_map
        (fun name ->
          List.filter_map
            (fun form ->
              let spec = name ^ form in
              if greedy_fails ctx spec then
                Some { key = cname ^ "\t" ^ spec; ctx; fresh; spec }
              else None)
            forms)
        (Repository.package_names ctx.I.repo))
    [
      ("site", site, site_ctx);
      ("empty", empty, empty_ctx);
      ("prefs", prefs, prefs_ctx);
    ]

let e2e_queries ~site =
  let uses_mpi p =
    match Concretizer.concretize site (Parser.parse_exn p) with
    | Ok c ->
        List.exists
          (fun (n : Concrete.node) -> List.mem_assoc "mpi" n.Concrete.provided)
          (Concrete.nodes c)
    | Error _ -> false
  in
  let hwloc =
    List.filter_map
      (fun p ->
        let spec = p ^ " ^mpi+hwloc ^hwloc@1.9" in
        let ast = Parser.parse_exn spec in
        if
          uses_mpi p
          && Result.is_error (Backends.solve Backends.Greedy site ast)
          && Result.is_ok (Backends.solve Backends.Clauses site ast)
        then Some { key = "e2e\t" ^ spec; ctx = site; fresh = site_ctx; spec }
        else None)
      (Repository.package_names site.I.repo)
  in
  let family =
    List.concat_map
      (fun k ->
        List.map
          (fun sat ->
            {
              key =
                Printf.sprintf "e2e\ttop (%d providers, %s)" k
                  (if sat then "sat" else "unsat");
              ctx = provider_family ~sat k;
              fresh = (fun () -> provider_family ~sat k);
              spec = "top";
            })
          [ true; false ])
      (List.init 31 (fun i -> i + 2))
  in
  hwloc @ family
  @ [
      {
        key = "e2e\tgerris ^mpich@1.4";
        ctx = site;
        fresh = site_ctx;
        spec = "gerris ^mpich@1.4";
      };
    ]

(* everything the encoder exposes, rendered *)
let encoding_text ctx spec =
  let b = Buffer.create 8192 in
  (match Clauses.encode ctx (Parser.parse_exn spec) with
  | exception e -> Printf.bprintf b "encode raised %s\n" (Printexc.to_string e)
  | enc ->
      for v = 1 to Clauses.nvars enc do
        Printf.bprintf b "%d %s\n" v (Clauses.var_to_string enc v)
      done;
      let cl = Clauses.clause_list enc in
      List.iter
        (fun (lits, o) ->
          List.iter (Printf.bprintf b "%d ") lits;
          Printf.bprintf b "#%d\n" o)
        cl;
      Buffer.add_string b "order";
      List.iter (Printf.bprintf b " %d") (Clauses.order enc);
      Buffer.add_char b '\n';
      List.iteri
        (fun o _ -> Printf.bprintf b "%d: %s\n" o (Clauses.reason enc o))
        cl);
  Buffer.contents b

let outcome_text ctx spec =
  let oc = Backends.solve_full Backends.Clauses ctx (Parser.parse_exn spec) in
  String.concat "\n"
    ((match oc.I.oc_result with
     | Ok c -> "ok " ^ Concrete.root_hash c
     | Error e -> "error " ^ Cerror.to_string e)
    :: I.stats_to_string oc.I.oc_stats
    :: oc.I.oc_core)

let digest q =
  Digest.to_hex
    (Digest.string (encoding_text q.ctx q.spec ^ outcome_text q.ctx q.spec))

let all_queries =
  lazy
    (let site = site_ctx () and empty = empty_ctx () and prefs = prefs_ctx () in
     corpus_queries ~site ~empty ~prefs @ e2e_queries ~site)

let fixture_path = "encoding_fixture.txt"

let read_fixture () =
  In_channel.with_open_text fixture_path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  |> List.map (fun l ->
         match String.rindex_opt l '\t' with
         | Some i ->
             (String.sub l 0 i, String.sub l (i + 1) (String.length l - i - 1))
         | None -> Alcotest.failf "malformed fixture line: %s" l)

let fixture_matches () =
  let expected = read_fixture () in
  let queries = Lazy.force all_queries in
  Alcotest.(check (list string))
    "corpus (queries greedy fails, then the e2e pool)" (List.map fst expected)
    (List.map (fun q -> q.key) queries);
  let mismatches =
    List.filter_map
      (fun (q, (_, want)) -> if digest q = want then None else Some q.key)
      (List.combine queries expected)
  in
  Alcotest.(check (list string)) "queries whose digest moved" [] mismatches

(* A context's fact table is filled by earlier queries; a query on a
   long-lived context must encode exactly as on a fresh one. The corpus
   contexts are long-lived: the fixture test has already encoded every
   query on them. *)
let cold_warm_property =
  let pool = lazy (Array.of_list (Lazy.force all_queries)) in
  QCheck.Test.make ~count:40 ~name:"warm context encodes like a fresh one"
    QCheck.(list_of_size Gen.(1 -- 8) (int_bound 100_000))
    (fun picks ->
      let pool = Lazy.force pool in
      List.for_all
        (fun i ->
          let q = pool.(i mod Array.length pool) in
          encoding_text q.ctx q.spec = encoding_text (q.fresh ()) q.spec)
        picks)

let () =
  match Sys.getenv_opt "OSPACK_ENCODING_FIXTURE" with
  | Some path ->
      let queries = Lazy.force all_queries in
      Out_channel.with_open_text path (fun oc ->
          Printf.fprintf oc
            "# clause-encoding digests: see test_encoding.ml (%d queries)\n"
            (List.length queries);
          List.iter
            (fun q -> Printf.fprintf oc "%s\t%s\n" q.key (digest q))
            queries)
  | None ->
      Alcotest.run "encoding"
        [
          ( "clauses",
            [
              Alcotest.test_case "digests match the fixture" `Quick
                fixture_matches;
              QCheck_alcotest.to_alcotest cold_warm_property;
            ] );
        ]
