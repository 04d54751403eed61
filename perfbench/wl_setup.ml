(* wve-setup: the "groups installed/s" cost behind Fig 4/5. Each pass
   installs the whole population one group at a time with
   [Controller.add_group] on a controller wired to a fresh [Fabric], then
   runs [Verify.check_controller] once over the result. Tree, Algorithm 1,
   the s-rule ledger, the install hooks and Verify do nearly all the work;
   the delta fast path, the codec and per-hop forwarding never run. *)

open Harness

type state = Population.t

let setup ~seed ~trace:_ = Population.build ~seed

let l_add = Spans.layer "controller.add_group"
let l_tree = Spans.layer "tree.of_members"
let l_encode = Spans.layer "encoding.encode"
let l_view = Spans.layer "installed_config.view"
let l_check = Spans.layer "verify.check_config"

(* Replays one group's tree and Algorithm 1 encode on a private ledger that
   mirrors the controller's (same fmax, same install order, perfect hooks),
   so the add_group span splits into tree + encode + hooks + controller
   self time. *)
let replay (pop : Population.t) ledger g =
  let receivers =
    List.filter_map
      (fun (h, r) -> if Population.is_receiver r then Some h else None)
      pop.Population.members.(g)
  in
  match receivers with
  | [] -> ()
  | receivers ->
      let tree, tree_us = Spans.measure l_tree (fun () -> Tree.of_members pop.Population.topo receivers) in
      let (_ : Encoding.t), enc_us =
        Spans.measure l_encode (fun () -> Encoding.encode pop.Population.params ledger tree)
      in
      Spans.credit l_add (tree_us +. enc_us)

let run (pop : Population.t) ~seconds ~trace =
  let ids = Population.all_ids pop in
  let ngroups = Array.length ids in
  let tally = tally () in
  let ph = phases ~block:ngroups in
  let checks = Samples.create () in
  let hooks = { Population.mutations = 0; read_backs = 0 } in
  let counts = ref [] and digest = ref 0 in
  let updates = ref 0 in
  let gc0 = gc_mark () in
  let t_start = now_ns () in
  let pass = ref 0 in
  (* Every run measures at least one pass after the warm-up pass, and a
     traced run at least one untraced and one traced pass. *)
  while !pass < 2 || (trace && !pass < 3) || s_since t_start < seconds do
    let warm = !pass = 0 in
    trace_block ~trace ~warm ~block:!pass;
    let tracing = !Spans.on in
    let wrap = if tracing then Population.counting_hooks hooks else Fun.id in
    let fabric = Fabric.create pop.Population.topo in
    let ctrl =
      Controller.create
        ~fabric_hooks:(wrap (Fabric.controller_hooks fabric))
        pop.Population.topo pop.Population.params
    in
    let ledger = Srule_state.create pop.Population.topo ~fmax:pop.Population.params.Params.fmax in
    Array.iter
      (fun g ->
        let t0 = now_ns () in
        let ok =
          let members = pop.Population.members.(g) in
          match Spans.span l_add (fun () -> Controller.add_group ctrl ~group:g members) with
          | u ->
              if warm then updates := !updates + Population.update_count pop.Population.topo u;
              true
          | exception e ->
              attempt tally false (lazy (Printf.sprintf "add_group %d: %s" g (Printexc.to_string e)));
              false
        in
        record ph ~warm (us_since t0);
        if ok then attempt tally true (lazy "");
        if tracing then replay pop ledger g)
      ids;
    let t0 = now_ns () in
    let verdict =
      if tracing then
        let view = Spans.span l_view (fun () -> Controller.installed_config ctrl) in
        Spans.span l_check (fun () -> Verify.check_config view)
      else Verify.check_controller ctrl
    in
    Samples.add checks (us_since t0 /. 1e3);
    attempt tally (verdict = Ok ngroups)
      (lazy
        (match verdict with
        | Ok n -> Printf.sprintf "verify checked %d of %d groups" n ngroups
        | Error w -> Format.asprintf "verify witness %a" Verify.pp_witness w));
    if warm then begin
      let extra = Population.extra_traffic_pct ctrl ids in
      let enc = Population.encoding_counts ctrl ids in
      counts := ("extra_traffic_pct", extra) :: enc;
      Array.iter
        (fun g ->
          List.iter
            (fun (h, r) -> digest := Population.mix (Population.mix !digest h) (Hashtbl.hash r))
            (Controller.members ctrl ~group:g))
        ids
    end;
    incr pass
  done;
  Spans.pause ();
  let all = all ph in
  let installs = Samples.count all in
  let check_ms = Samples.median_or_zero checks in
  say "wve-setup: %d passes of %d groups; install_groups_per_s %.0f; verify_groups_per_s %.0f"
    !pass ngroups (float installs /. (Samples.total all *. 1e-6)) (float ngroups /. (check_ms *. 1e-3));
  let e2e =
    op_metrics ph
    @ [
        metric "check_ms" "ms" check_ms;
        metric "extra_traffic_pct" "%" (List.assoc "extra_traffic_pct" !counts);
      ]
  in
  let layers =
    !counts
    @ [ ("controller.updates_per_event", float !updates /. float ngroups) ]
    @ gc_metrics gc0 ~ops:installs
  in
  let layers =
    if not trace then layers
    else begin
      let ops = float (Samples.count ph.traced) in
      let hook_l = Population.hook_layer in
      let view_ms = Spans.mean_us l_view /. 1e3 and check_ms = Spans.mean_us l_check /. 1e3 in
      say "add_group split (mean us): tree %.1f + encode %.1f + hooks %.1f + controller self %.1f = %.1f"
        (Spans.mean_us l_tree) (Spans.mean_us l_encode) (hook_l.Spans.total_us /. ops)
        (l_add.Spans.self_us /. ops) (Spans.mean_us l_add);
      say "verify split (mean ms): installed_config view %.1f + check %.1f; view share %.1f%%"
        view_ms check_ms (100.0 *. view_ms /. (view_ms +. check_ms));
      layers
      @ [
          ("tree.of_members_us", Spans.mean_us l_tree);
          ("encoding.encode_us", Spans.mean_us l_encode);
          ("controller.add_group_self_us", l_add.Spans.self_us /. ops);
          ("hooks.calls_per_op", float hooks.Population.mutations /. ops);
          ("hooks.read_backs_per_op", float hooks.Population.read_backs /. ops);
          ("hooks.us_per_op", hook_l.Spans.total_us /. ops);
          ("installed_config.view_ms", view_ms);
          ("verify.check_us_per_group", Spans.mean_us l_check /. float ngroups);
          trace_overhead ph;
        ]
    end
  in
  { tally; e2e; layers; counts = !counts; digest = !digest }
