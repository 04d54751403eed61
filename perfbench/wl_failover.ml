(* durable-failover: the only workload that touches lib/fault. A slice of
   the population lives on a durable [Replica] at the default snapshot
   cadence, wired to one fabric. The timed loop alternates a burst of
   journaled churn through [Replica.apply] (write-ahead [Wire] append plus
   snapshots) with a [Supervisor.failover] from the resulting bytes onto
   the same fabric; the recovered replica becomes the next primary. [Wire]
   is used both for writes and for reads, so a gain on one side that costs
   the other shows. *)

open Harness

type state = {
  pop : Population.t;
  fabric : Fabric.t;
  mutable replica : Replica.t;
  mirror : Population.mirror;
  ids : int array;
}

(* One group in [stride] by size rank: a slice small enough that a run
   holds the 20 failovers a median needs. Taking it by size rank keeps the
   population's size mix in every seed; failover cost grows with the
   square of group size, so a slice by id would be decided by whether it
   happened to catch one of the few largest groups. A 200-group slice
   (stride 20) left the p95 of [Replica.apply] to its few largest groups:
   it spread 0.22-0.24 (interquartile range over median) across ten
   seeds, against 0.08 for this 400-group one. *)
let stride = 10
let burst = 512
let count_cycles = 4
let min_failovers = 20

let setup ~seed ~trace:_ =
  let pop = Population.build ~seed in
  let by_size = Population.all_ids pop in
  let size g = List.length pop.Population.members.(g) in
  Array.stable_sort (fun a b -> compare (size a) (size b)) by_size;
  let ids = Array.init (Population.groups / stride) (fun i -> by_size.((i * stride) + (stride / 2))) in
  Array.sort compare ids;
  let fabric = Fabric.create pop.Population.topo in
  let replica =
    Replica.create ~durable:true
      ~fabric_hooks:(Fabric.controller_hooks_at fabric ~epoch:0)
      pop.Population.topo pop.Population.params
  in
  Array.iter
    (fun g -> Replica.apply replica (Journal.Add_group { group = g; members = pop.Population.members.(g) }))
    ids;
  { pop; fabric; replica; mirror = Population.mirror pop ids (Rng.split pop.Population.rng); ids }

let l_apply = Spans.layer "replica.apply"
let l_failover = Spans.layer "supervisor.failover"
let l_load = Spans.layer "wire.load"
let l_of_wire = Spans.layer "replica.of_wire"
let l_sweep = Spans.layer "verify.sender_sweep"

(* The supervisor's zero-blackhole proof, replayed on its own: every
   sender's compiled delivery predicate must cover its receivers. *)
let sender_sweep cfg =
  let ctx = Pred.create_ctx () in
  List.for_all
    (fun (gv : Installed_config.group_view) ->
      let group = gv.Installed_config.gid in
      List.for_all
        (fun sender ->
          match Verify.compile_sender ctx cfg ~group ~sender with
          | None -> true
          | Some big ->
              let small = Verify.receiver_endpoints ctx cfg ~group ~sender in
              Result.is_ok (Verify.check_subsumes ~group ~big ~small))
        gv.Installed_config.senders)
    cfg.Installed_config.groups

(* Counts summed over the failovers of the count window. *)
type tallies = {
  mutable replayed : int;
  mutable sites : int;
  mutable snapshot_bytes : int;
  mutable extra : float;
}

(* The recovered replica must leave no blackholes and pass Verify. The
   traced run also times the failover's stages on their own; reconcile is
   what remains. *)
let recovered_ok st tallies (o : Supervisor.outcome) bytes ~tracing ~in_window ~last =
  let recovered = Replica.controller o.Supervisor.replica in
  let verdict = Verify.check_controller recovered in
  let swept =
    (not tracing)
    ||
    match Spans.measure l_load (fun () -> Wire.load bytes) with
    | Error _, _ -> false
    | Ok loaded, load_us ->
        let rebuilt, of_wire_us = Spans.measure l_of_wire (fun () -> Replica.of_wire loaded) in
        let swept, sweep_us =
          Spans.measure l_sweep (fun () -> sender_sweep (Replica.installed_config o.Supervisor.replica))
        in
        Spans.credit l_failover (load_us +. of_wire_us +. sweep_us);
        Result.is_ok rebuilt && swept
  in
  if in_window then begin
    tallies.replayed <- tallies.replayed + List.length o.Supervisor.loaded.Wire.l_suffix;
    tallies.sites <- tallies.sites + o.Supervisor.reconcile.Supervisor.sites_checked;
    tallies.snapshot_bytes <-
      tallies.snapshot_bytes + Wire.size (Option.get (Replica.wire o.Supervisor.replica));
    if last then tallies.extra <- Population.extra_traffic_pct recovered st.ids
  end;
  if o.Supervisor.blackholes = [] && Result.is_ok verdict && swept then Ok ()
  else
    Error
      (Printf.sprintf "failover left %d blackholes%s%s" (List.length o.Supervisor.blackholes)
         (match verdict with
         | Ok _ -> ""
         | Error w -> Format.asprintf ", verify witness %a" Verify.pp_witness w)
         (if swept then "" else ", replayed stages failed"))

let run st ~seconds ~trace =
  let tally = tally () in
  let ph = phases ~block:1_024 in
  let failovers = Samples.create () in
  let wire_bytes = ref 0 and digest = ref 0 in
  let tallies = { replayed = 0; sites = 0; snapshot_bytes = 0; extra = 0.0 } in
  let gc0 = gc_mark () in
  let t_start = now_ns () in
  let cycles = ref 0 and stop = ref false in
  while
    (not !stop)
    && (!cycles < max count_cycles min_failovers || s_since t_start < seconds
       || (trace && Samples.count ph.traced = 0))
  do
    let in_window = !cycles < count_cycles in
    trace_block ~trace ~warm:in_window ~block:!cycles;
    let tracing = !Spans.on in
    let wire = Option.get (Replica.wire st.replica) in
    let size0 = Wire.size wire in
    for _ = 1 to burst do
      let ev = Population.next_event st.mirror in
      if in_window then digest := Population.event_digest !digest ev;
      let t0 = now_ns () in
      let ok =
        match Spans.span l_apply (fun () -> Replica.apply st.replica (Population.journal_op ev)) with
        | () -> true
        | exception e ->
            attempt tally false (lazy ("journaled op: " ^ Printexc.to_string e));
            false
      in
      record ph ~warm:in_window (us_since t0);
      if ok then attempt tally true (lazy "")
    done;
    if in_window then wire_bytes := !wire_bytes + (Wire.size wire - size0);
    let bytes = Wire.contents wire in
    let t0 = now_ns () in
    let result =
      match Spans.span l_failover (fun () -> Supervisor.failover ~fabric:st.fabric bytes) with
      | r -> r
      | exception e -> Error ("raised " ^ Printexc.to_string e)
    in
    Samples.add failovers (us_since t0 /. 1e3);
    let verdict =
      match result with
      | Error e -> Error ("failover: " ^ e)
      | Ok o -> (
          match recovered_ok st tallies o bytes ~tracing ~in_window ~last:(!cycles = count_cycles - 1) with
          | v -> v
          | exception e -> Error ("checking the recovered replica raised " ^ Printexc.to_string e))
    in
    attempt tally (Result.is_ok verdict)
      (lazy (match verdict with Ok () -> "" | Error e -> e));
    (match (verdict, result) with
    | Ok (), Ok o -> st.replica <- o.Supervisor.replica
    | _ -> stop := true);
    incr cycles
  done;
  Spans.pause ();
  let all = all ph in
  let per_cycle x = float x /. float count_cycles in
  let failover_ms = Samples.median_or_zero failovers in
  say "durable-failover: %d groups, %d cycles of %d ops + failover; journal_ops_per_s %.0f; failover_p50_ms %.2f (n=%d)"
    (Array.length st.ids) !cycles burst
    (float (Samples.count all) /. (Samples.total all *. 1e-6)) failover_ms (Samples.count failovers);
  let counts =
    [
      ("extra_traffic_pct", tallies.extra);
      ("wire.bytes_per_op", float !wire_bytes /. float (count_cycles * burst));
      ("wire.snapshot_bytes", per_cycle tallies.snapshot_bytes);
      ("replica.replayed_ops", per_cycle tallies.replayed);
      ("supervisor.sites_checked", per_cycle tallies.sites);
    ]
  in
  let e2e = op_metrics ph @ [ metric "check_ms" "ms" failover_ms; metric "extra_traffic_pct" "%" tallies.extra ] in
  let layers =
    counts
    @ [ ("replica.apply_us", Samples.mean all) ]
    @ gc_metrics gc0 ~ops:(Samples.count all)
  in
  let layers =
    if not trace then layers
    else
      let mean_ms l = Spans.mean_us l /. 1e3 in
      let reconcile = mean_ms l_failover -. mean_ms l_load -. mean_ms l_of_wire -. mean_ms l_sweep in
      say "failover split (mean ms): load %.2f + of_wire %.2f + sender sweep %.2f + reconcile %.2f = %.2f"
        (mean_ms l_load) (mean_ms l_of_wire) (mean_ms l_sweep) reconcile (mean_ms l_failover);
      layers
      @ [
          ("wire.load_ms", mean_ms l_load);
          ("replica.of_wire_ms", mean_ms l_of_wire);
          ("verify.sender_sweep_ms", mean_ms l_sweep);
          ("supervisor.reconcile_ms", reconcile);
          trace_overhead ph;
        ]
  in
  { tally; e2e; layers; counts; digest = !digest }
