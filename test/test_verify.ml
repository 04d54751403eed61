(* The symbolic forwarding-equivalence layer: canonical predicate algebra
   (hash-consing, subsumption, witnesses) and — the load-bearing property —
   agreement between the symbolic per-sender compiler and an actual packet
   injection on randomized memberships, health states and sender choices. *)

let topo = Topology.running_example ()
let h = topo.Topology.hosts_per_leaf

(* {1 Predicate algebra} *)

let test_hash_consing () =
  let ctx = Pred.create_ctx () in
  let a = Pred.of_pairs ctx [ (Pred.Leaf 3, 1); (Pred.Core, 2); (Pred.Spine 1, 0) ] in
  let b = Pred.of_pairs ctx [ (Pred.Spine 1, 0); (Pred.Leaf 3, 1); (Pred.Core, 2) ] in
  Alcotest.(check bool) "order-insensitive interning" true (Pred.equiv a b);
  let c = Pred.of_pairs ctx [ (Pred.Leaf 3, 1); (Pred.Core, 2) ] in
  Alcotest.(check bool) "distinct sets distinct" false (Pred.equiv a c);
  Alcotest.(check int) "duplicates collapse" 3
    (Pred.cardinal (Pred.of_pairs ctx [ (Pred.Core, 0); (Pred.Core, 0); (Pred.Core, 1); (Pred.Leaf 0, 0) ]));
  Alcotest.(check bool) "empty is empty" true
    (Pred.is_empty (Pred.of_pairs ctx []))

let test_canonical_order_and_pp () =
  let ctx = Pred.create_ctx () in
  let p = Pred.of_pairs ctx [ (Pred.Leaf 4, 7); (Pred.Spine 2, 0); (Pred.Core, 2) ] in
  (* core sorts before spines before leaves: the topmost layer first *)
  Alcotest.(check string) "render" "{core/2, spine2/0, leaf4/7}"
    (Format.asprintf "%a" Pred.pp p);
  Alcotest.(check (list int)) "leaf endpoints" [ (4 * h) + 7 ]
    (Pred.leaf_endpoints p ~topo)

let test_subsumes_and_witnesses () =
  let ctx = Pred.create_ctx () in
  let big = Pred.of_pairs ctx [ (Pred.Core, 1); (Pred.Spine 1, 0); (Pred.Leaf 2, 3); (Pred.Leaf 2, 5) ] in
  let small = Pred.of_pairs ctx [ (Pred.Leaf 2, 3); (Pred.Spine 1, 0) ] in
  Alcotest.(check bool) "subsumes" true (Pred.subsumes ~big ~small);
  Alcotest.(check bool) "not the converse" false
    (Pred.subsumes ~big:small ~small:big);
  (match Pred.first_missing ~big:small ~small:big with
  | Some (Pred.Core, 1) -> ()
  | _ -> Alcotest.fail "first missing edge should be the topmost (core/1)");
  (match Verify.diff ~group:9 big small with
  | Some w ->
      Alcotest.(check string) "diff witness" "9/core/1"
        (Format.asprintf "%a" Verify.pp_witness w)
  | None -> Alcotest.fail "diff must find the core edge");
  Alcotest.(check bool) "diff of equal is None" true
    (Verify.diff ~group:0 big big = None)

(* {1 Compile / intent / check_config} *)

let mk_ctrl params =
  let fabric = Fabric.create topo in
  ( Controller.create ~fabric_hooks:(Fabric.controller_hooks fabric) topo params,
    fabric )

let both hosts = List.map (fun x -> (x, Controller.Both)) hosts

let test_compile_matches_intent_healthy () =
  let ctrl, _ = mk_ctrl Params.default in
  ignore (Controller.add_group ctrl ~group:0 (both [ 0; 1; h; (3 * h) + 2 ]));
  ignore (Controller.add_group ctrl ~group:1 (both [ 2; 3 ]));
  ignore (Controller.add_group ctrl ~group:2 (both [ (6 * h) + 1; (7 * h) + 4 ]));
  match Verify.check_controller ctrl with
  | Ok n -> Alcotest.(check int) "three groups checked" 3 n
  | Error w ->
      Alcotest.failf "healthy controller fails its own check: %a"
        Verify.pp_witness w

(* A view that owns its data: the live controller's checkpoint, decoded. *)
let owned_view ctrl =
  Controller.installed_config_of_snapshot (Test_fault.snapshot_of ctrl)

let test_check_config_finds_lost_receiver () =
  let ctrl, _ = mk_ctrl Params.default in
  ignore (Controller.add_group ctrl ~group:0 (both [ 0; 1; h ]));
  let cfg = owned_view ctrl in
  (* Corrupt the owned view (the live one borrows the controller's
     bitmaps): drop host 1's port from every leaf-layer rule of group 0 —
     the symbolic check must name exactly that endpoint. *)
  let corrupt (g : Installed_config.group_view) =
    match g.Installed_config.enc with
    | None -> g
    | Some enc ->
        List.iter
          (fun (r : Prule.prule) ->
            if Prule.rule_mem r 0 then Bitmap.clear r.Prule.bitmap 1)
          enc.Encoding.d_leaf.Clustering.prules;
        List.iter
          (fun (l, bm) -> if l = 0 then Bitmap.clear bm 1)
          enc.Encoding.d_leaf.Clustering.srules;
        g
  in
  let cfg = { cfg with Installed_config.groups = List.map corrupt cfg.Installed_config.groups } in
  (match Verify.check_config cfg with
  | Ok _ -> Alcotest.fail "corrupted config must fail the check"
  | Error w ->
      Alcotest.(check string) "witness names the lost endpoint" "0/leaf0/1"
        (Format.asprintf "%a" Verify.pp_witness w));
  Alcotest.(check bool) "live controller untouched by the sabotage" true
    (Verify.check_controller ctrl = Ok 1)

let test_snapshot_view_matches_live () =
  let ctrl, _ = mk_ctrl Params.default in
  ignore (Controller.add_group ctrl ~group:3 (both [ 0; (2 * h) + 1; (5 * h) + 5 ]));
  ignore (Controller.fail_spine ctrl 1);
  let ctx = Pred.create_ctx () in
  let live = Controller.installed_config ctrl in
  let snap = owned_view ctrl in
  Alcotest.(check bool) "snapshot view compiles identically" true
    (Verify.equiv
       (Verify.compile ctx live ~group:3)
       (Verify.compile ctx snap ~group:3));
  match Verify.compile_sender ctx live ~group:3 ~sender:0,
        Verify.compile_sender ctx snap ~group:3 ~sender:0 with
  | Some a, Some b ->
      Alcotest.(check bool) "per-sender too (incl. overrides/health)" true
        (Verify.equiv a b)
  | _ -> Alcotest.fail "multicast path expected on both views"

(* {1 Borrowed and owned views} *)

let test_live_view_borrows_encodings () =
  let ctrl, _ = mk_ctrl Params.default in
  ignore (Controller.add_group ctrl ~group:4 (both [ 0; h; (5 * h) + 2 ]));
  ignore (Controller.add_group ctrl ~group:6 (both [ 1; (3 * h) + 1 ]));
  ignore (Controller.fail_spine ctrl 1);
  let cfg = Controller.installed_config ctrl in
  List.iter
    (fun (g : Installed_config.group_view) ->
      let group = g.Installed_config.gid in
      match (g.Installed_config.enc, Controller.encoding ctrl ~group) with
      | Some a, Some b ->
          Alcotest.(check bool)
            (Printf.sprintf "group %d: the controller's own encoding" group)
            true (a == b)
      | _ -> Alcotest.failf "group %d: encoding expected" group)
    cfg.Installed_config.groups;
  let owned = owned_view ctrl in
  List.iter2
    (fun (live : Installed_config.group_view)
         (own : Installed_config.group_view) ->
      match (live.Installed_config.enc, own.Installed_config.enc) with
      | Some a, Some b ->
          Alcotest.(check bool) "the owned view copies" false (a == b)
      | _ -> Alcotest.fail "encoding expected")
    cfg.Installed_config.groups owned.Installed_config.groups

(* The live (borrowed) view and the owned snapshot view check alike on the
   six seeded batches of the controller golden pin, uncached and cached. *)
let test_live_and_owned_views_check_alike () =
  List.iter
    (fun seed ->
      let batch = Test_controller.pin_batch seed in
      List.iter
        (fun (pname, params) ->
          let label what = Printf.sprintf "seed %d/%s: %s" seed pname what in
          let ctrl = Controller.create Test_controller.pin_topo params in
          ignore (Controller.install_all ctrl batch);
          let live = Controller.installed_config ctrl in
          let owned = owned_view ctrl in
          let n = Controller.group_count ctrl in
          let ok = Ok n in
          Alcotest.(check bool) (label "live check_config") true
            (Verify.check_config live = ok);
          Alcotest.(check bool) (label "owned check_config") true
            (Verify.check_config owned = ok);
          let dirty = Controller.drain_dirty ctrl in
          let cached cfg = Verify.check_config_cached (Verify.create_cache ()) cfg ~dirty in
          Alcotest.(check bool) (label "live check_config_cached") true
            (cached live = ok);
          Alcotest.(check bool) (label "owned check_config_cached") true
            (cached owned = ok))
        Test_controller.pin_params)
    [ 11; 23; 37 ]

let test_owned_view_survives_join () =
  let ctrl, _ = mk_ctrl Params.default in
  ignore (Controller.add_group ctrl ~group:0 (both [ 0; h; (4 * h) + 1 ]));
  let ctx = Pred.create_ctx () in
  let before = owned_view ctrl in
  let pred_before = Verify.compile ctx (Controller.installed_config ctrl) ~group:0 in
  (* Receivers on a new leaf and in the same leaf, so the join goes
     through both the re-encode and the in-place delta paths. *)
  ignore (Controller.join ctrl ~group:0 ~host:((6 * h) + 3) ~role:Controller.Both);
  ignore (Controller.join ctrl ~group:0 ~host:1 ~role:Controller.Receiver);
  let pred_after = Verify.compile ctx (Controller.installed_config ctrl) ~group:0 in
  Alcotest.(check bool) "the join changed the predicate" false
    (Verify.equiv pred_before pred_after);
  Alcotest.(check bool) "owned view still compiles to the pre-join predicate"
    true
    (Verify.equiv pred_before (Verify.compile ctx before ~group:0))

(* {1 Symbolic walk vs. packet injection} *)

(* Random membership + random health + every member as sender: the
   endpoints of [compile_sender] must equal the delivered-host set of a
   real [Fabric.inject] of the controller's own header, whenever the
   controller still has a multicast path. Fabric and controller health are
   flipped in lockstep, as the control plane does. *)
let gen_scenario =
  QCheck.Gen.(
    let hosts = Topology.num_hosts topo in
    triple
      (list_size (int_range 2 12) (int_range 0 (hosts - 1)))
      (list_size (int_range 0 4) (int_range 0 (Topology.num_spines topo - 1)))
      (list_size (int_range 0 6)
         (pair
            (int_range 0 (Topology.num_leaves topo - 1))
            (int_range 0 (topo.Topology.spines_per_pod - 1)))))

let arb_scenario =
  QCheck.make
    ~print:(fun (ms, spines, links) ->
      Printf.sprintf "members=[%s] spines=[%s] links=[%s]"
        (String.concat ";" (List.map string_of_int ms))
        (String.concat ";" (List.map string_of_int spines))
        (String.concat ";"
           (List.map (fun (l, p) -> Printf.sprintf "%d.%d" l p) links)))
    gen_scenario

let prop_symbolic_agrees_with_injection =
  QCheck.Test.make
    ~name:"compile_sender endpoints == injected delivery, any health" ~count:60
    arb_scenario (fun (ms, spines, links) ->
      let members = List.sort_uniq Int.compare ms in
      QCheck.assume (List.length members >= 2);
      let ctrl, fabric = mk_ctrl Params.default in
      ignore (Controller.add_group ctrl ~group:0 (both members));
      List.iter
        (fun s ->
          Fabric.fail_spine fabric s;
          ignore (Controller.fail_spine ctrl s))
        (List.sort_uniq Int.compare spines);
      List.iter
        (fun (leaf, plane) ->
          Fabric.fail_link fabric ~leaf ~plane;
          ignore (Controller.fail_link ctrl ~leaf ~plane))
        (List.sort_uniq (fun (a, b) (c, d) ->
             match Int.compare a c with 0 -> Int.compare b d | n -> n)
           links);
      let cfg = Controller.installed_config ctrl in
      let ctx = Pred.create_ctx () in
      List.for_all
        (fun sender ->
          match Verify.compile_sender ctx cfg ~group:0 ~sender with
          | None -> Controller.header ctrl ~group:0 ~sender = None
          | Some pred -> (
              match Controller.header ctrl ~group:0 ~sender with
              | None ->
                  QCheck.Test.fail_reportf
                    "sender %d: symbolic path but unicast header" sender
              | Some header ->
                  let report =
                    Fabric.inject fabric ~sender ~group:0 ~header ~payload:64
                  in
                  let injected =
                    List.map fst report.Fabric.delivered
                    |> List.sort_uniq Int.compare
                  in
                  let symbolic = Pred.leaf_endpoints pred ~topo in
                  if injected <> symbolic then
                    QCheck.Test.fail_reportf
                      "sender %d: injected [%s] vs symbolic [%s]" sender
                      (String.concat ";" (List.map string_of_int injected))
                      (String.concat ";" (List.map string_of_int symbolic))
                  else true))
        members)

(* {1 Header-only interpretation} *)

let test_header_pred_walks_the_header () =
  let tree = Tree.of_members topo [ 0; 1; (2 * h) + 3; (6 * h) + 2 ] in
  let srules = Srule_state.create topo ~fmax:100 in
  let enc = Encoding.encode Params.default srules tree in
  let ctx = Pred.create_ctx () in
  let header = Encoding.header_for_sender enc ~sender:0 in
  let p = Verify.header_pred ctx topo ~sender:0 header in
  (* co-located member 1 appears; the sender itself never does *)
  let eps = Pred.leaf_endpoints p ~topo in
  Alcotest.(check bool) "member 1 delivered" true (List.mem 1 eps);
  Alcotest.(check bool) "sender not delivered" false (List.mem 0 eps);
  Alcotest.(check bool) "remote pod member delivered" true
    (List.mem ((6 * h) + 2) eps)

(* {1 Predicate cache} *)

let cache_topo =
  Topology.create ~pods:2 ~leaves_per_pod:2 ~spines_per_pod:2 ~hosts_per_leaf:4
    ~cores_per_plane:1

let host_in pod i =
  List.init (Topology.num_hosts cache_topo) Fun.id
  |> List.filter (fun h -> Topology.pod_of_host cache_topo h = pod)
  |> fun hs -> List.nth hs i

let test_verify_cache_incremental () =
  let ctrl = Controller.create cache_topo (Params.create ~fmax:50 ()) in
  List.iter
    (fun group ->
      ignore
        (Controller.add_group ctrl ~group
           [ (host_in 0 group, Controller.Both); (host_in 1 group, Controller.Both) ]))
    [ 1; 2; 3 ];
  let cache = Verify.create_cache () in
  (match Verify.check_controller_cached cache ctrl with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "healthy controller must verify");
  Alcotest.(check (pair int int)) "cold: all misses" (0, 3)
    (Verify.cache_stats cache);
  (match Verify.check_controller_cached cache ctrl with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "re-check must pass");
  Alcotest.(check (pair int int)) "warm: all hits" (3, 3)
    (Verify.cache_stats cache);
  (* A membership change dirties exactly one group. *)
  ignore (Controller.join ctrl ~group:2 ~host:(host_in 0 3) ~role:Controller.Both);
  (match Verify.check_controller_cached cache ctrl with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "post-churn check must pass");
  Alcotest.(check (pair int int)) "one recompile after churn" (5, 4)
    (Verify.cache_stats cache);
  (* A removed group drops out of both the config and the cache. *)
  ignore (Controller.remove_group ctrl ~group:3);
  (match Verify.check_controller_cached cache ctrl with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "check after removal must pass");
  Alcotest.(check (pair int int)) "remaining groups all hit" (7, 4)
    (Verify.cache_stats cache);
  Alcotest.(check bool) "removed group evicted" true
    (Verify.cached_preds cache 3 = None)

(* Seeded churn with a spine and a link failure on two pin batches,
   checked through the cache after every event. The (hits, misses)
   constants were taken from the per-id-lookup walk that copied every
   encoding into the view, so they pin that the borrowed-view walk
   recompiles exactly the same groups. *)
let cache_pin_run seed params =
  let batch = Test_controller.pin_batch seed in
  let ctrl = Controller.create Test_controller.pin_topo params in
  ignore (Controller.install_all ctrl batch);
  let cache = Verify.create_cache () in
  let rng = Rng.create (seed * 7) in
  let gids = Array.of_list (List.map fst batch) in
  let nhosts = Topology.num_hosts Test_controller.pin_topo in
  let check i =
    match Verify.check_controller_cached cache ctrl with
    | Ok _ -> ()
    | Error w -> Alcotest.failf "event %d: witness %a" i Verify.pp_witness w
  in
  check 0;
  for i = 1 to 300 do
    let group = gids.(Rng.int rng (Array.length gids)) in
    let members = Controller.members ctrl ~group in
    (if List.length members > 2 && Rng.bool rng then
       let host, _ = List.nth members (Rng.int rng (List.length members)) in
       ignore (Controller.leave ctrl ~group ~host)
     else
       let host = Rng.int rng nhosts in
       if not (List.mem_assoc host members) then
         let role =
           match Rng.int rng 3 with
           | 0 -> Controller.Sender
           | 1 -> Controller.Receiver
           | _ -> Controller.Both
         in
         ignore (Controller.join ctrl ~group ~host ~role));
    if i = 100 then ignore (Controller.fail_spine ctrl 3);
    if i = 200 then ignore (Controller.fail_link ctrl ~leaf:6 ~plane:0);
    check i
  done;
  Verify.cache_stats cache

let test_cache_stats_pinned () =
  List.iter
    (fun ((seed, pname), expected) ->
      Alcotest.(check (pair int int))
        (Printf.sprintf "seed %d/%s: (hits, misses)" seed pname)
        expected
        (cache_pin_run seed (List.assoc pname Test_controller.pin_params)))
    [
      ((11, "loose"), (44422, 728));
      ((11, "tight"), (44422, 728));
      ((23, "tight"), (44423, 727));
    ]

let tests =
  [
    Alcotest.test_case "hash-consing" `Quick test_hash_consing;
    Alcotest.test_case "canonical order and rendering" `Quick
      test_canonical_order_and_pp;
    Alcotest.test_case "subsumption and witnesses" `Quick
      test_subsumes_and_witnesses;
    Alcotest.test_case "compile == intent on a healthy controller" `Quick
      test_compile_matches_intent_healthy;
    Alcotest.test_case "check_config pinpoints a lost receiver" `Quick
      test_check_config_finds_lost_receiver;
    Alcotest.test_case "snapshot view compiles like the live one" `Quick
      test_snapshot_view_matches_live;
    Alcotest.test_case "live view borrows the controller's encodings" `Quick
      test_live_view_borrows_encodings;
    Alcotest.test_case "live and owned views check alike (pin batches)" `Slow
      test_live_and_owned_views_check_alike;
    Alcotest.test_case "owned view survives a later join" `Quick
      test_owned_view_survives_join;
    QCheck_alcotest.to_alcotest prop_symbolic_agrees_with_injection;
    Alcotest.test_case "header-only interpretation" `Quick
      test_header_pred_walks_the_header;
    Alcotest.test_case "verify cache: incremental hits" `Quick
      test_verify_cache_incremental;
    Alcotest.test_case "verify cache: pinned hits and misses" `Slow
      test_cache_stats_pinned;
  ]
