(* The repository's benchmark. One process, one OCaml domain, no worker
   domains; every layer is driven only through its public functions, and
   every output is checked.

   Usage:
     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --selftest [--workload NAME] [--seed N]

   Workloads: wve-setup, wve-churn, zipf-inject, durable-failover (see
   README.md in this directory for why each was chosen and what it should
   and should not move). The last line of standard output is one JSON
   object {correct, attempted, failed, metrics}: with --trace 0 the
   end-to-end metrics, with --trace 1 the per-layer metrics of a traced
   run. Any failed op makes the command exit 1 after printing it.

   --selftest checks determinism: the same seed must give the same op or
   packet stream and the same count metrics, another seed a different
   stream. *)

open Harness

let setup_reps = 3

(* Per-layer metrics, in the order they are printed. A layer a workload
   does not exercise reports 0. *)
let per_layer =
  [
    ("placement.place_s", "s"); ("workload.generate_s", "s");
    ("tree.of_members_us", "us");
    ("encoding.encode_us", "us"); ("encoding.prules_per_group", "count");
    ("encoding.srules_per_group", "count"); ("encoding.default_rule_share", "ratio");
    ("controller.add_group_self_us", "us"); ("controller.updates_per_event", "count");
    ("hooks.calls_per_op", "count"); ("hooks.read_backs_per_op", "count"); ("hooks.us_per_op", "us");
    ("srule_state.leaf_occupancy_max", "count"); ("srule_state.spine_occupancy_max", "count");
    ("churn.fast_path_share", "ratio"); ("churn.new_leaf_share", "ratio");
    ("churn.emptied_leaf_share", "ratio"); ("churn.sender_only_share", "ratio");
    ("churn.fast_us", "us"); ("churn.reencode_us", "us");
    ("installed_config.view_ms", "ms");
    ("verify.check_us_per_group", "us"); ("verify.cache_hit_share", "ratio");
    ("verify.sender_sweep_ms", "ms");
    ("hypervisor.encap_vxlan_us", "us"); ("hypervisor.send_us", "us");
    ("header_codec.header_bytes", "B"); ("header_codec.decode_checked_us", "us");
    ("fabric.inject_us", "us"); ("fabric.hops_per_pkt", "count"); ("fabric.us_per_hop", "us");
    ("fabric.header_bytes_per_pkt", "B");
    ("wire.bytes_per_op", "B"); ("wire.snapshot_bytes", "B"); ("wire.load_ms", "ms");
    ("replica.apply_us", "us"); ("replica.of_wire_ms", "ms"); ("replica.replayed_ops", "count");
    ("supervisor.reconcile_ms", "ms"); ("supervisor.sites_checked", "count");
    ("gc.minor_words_per_op", "words"); ("gc.major_collections", "count");
    ("obs.trace_overhead_pct", "%");
  ]

type outcome = {
  result : report;
  setup_s : float;
  place_s : float;
  generate_s : float;
}

(* Sets the workload up [setup_reps] times (median set-up time; the state
   of the last repetition is kept), then runs it. *)
let measured (type s) (setup : seed:int -> trace:bool -> s) (population : s -> Population.t)
    (run : s -> seconds:float -> trace:bool -> report) ~seed ~seconds ~trace =
  let setups = Samples.create () and places = Samples.create () and gens = Samples.create () in
  let last = ref None in
  for _ = 1 to setup_reps do
    last := None;
    Gc.full_major ();
    let st, us = timed (fun () -> setup ~seed ~trace) in
    Samples.add setups (us *. 1e-6);
    Samples.add places (population st).Population.place_s;
    Samples.add gens (population st).Population.generate_s;
    last := Some st
  done;
  Gc.compact ();
  let result = run (Option.get !last) ~seconds ~trace in
  {
    result;
    setup_s = Samples.median setups;
    place_s = Samples.median places;
    generate_s = Samples.median gens;
  }

let workloads =
  [
    ("wve-setup", measured Wl_setup.setup Fun.id Wl_setup.run);
    ("wve-churn", measured Wl_churn.setup (fun s -> s.Wl_churn.pop) Wl_churn.run);
    ("zipf-inject", measured Wl_inject.setup (fun s -> s.Wl_inject.pop) Wl_inject.run);
    ("durable-failover", measured Wl_failover.setup (fun s -> s.Wl_failover.pop) Wl_failover.run);
  ]

let cpu_model () =
  match In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all with
  | text -> (
      match
        List.find_opt
          (fun l -> String.starts_with ~prefix:"model name" l)
          (String.split_on_char '\n' text)
      with
      | Some l -> String.trim (List.nth (String.split_on_char ':' l) 1)
      | None -> "unknown")
  | exception Sys_error _ -> "unknown"

let provenance ~workload ~seed =
  (* git must not look for a repository above the benchmark's directory. *)
  Unix.putenv "GIT_CEILING_DIRECTORIES" (Filename.dirname (Sys.getcwd ()));
  let p = Elmo_obs.Provenance.capture ~seed () in
  say "provenance: {\"workload\": %S, \"rev\": %S, \"cores\": %d, \"cpu\": %S, \"ocaml\": %S, \"seed\": %d, \"population_groups\": %d}"
    workload p.Elmo_obs.Provenance.git_rev p.Elmo_obs.Provenance.cores (cpu_model ())
    Sys.ocaml_version seed Population.groups

let run_one ~workload ~seed ~seconds ~trace =
  provenance ~workload ~seed;
  let o = (List.assoc workload workloads) ~seed ~seconds ~trace in
  let r = o.result in
  let t = r.tally in
  say "setup_s %.3f (median of %d); error_rate %g (%d failed of %d ops)" o.setup_s setup_reps
    (float t.failed /. float t.attempted) t.failed t.attempted;
  let metrics =
    if not trace then
      [ metric "setup_s" "s" o.setup_s; metric "heap_peak_mb" "MB" (heap_peak_mb ()) ] @ r.e2e
    else begin
      Spans.print_table ();
      let have = ("placement.place_s", o.place_s) :: ("workload.generate_s", o.generate_s) :: r.layers in
      List.map
        (fun (name, unit_) -> metric name unit_ (Option.value ~default:0.0 (List.assoc_opt name have)))
        per_layer
    end
  in
  List.iter (fun m -> say "  %-34s %16.6g %s" m.name m.value m.unit_) metrics;
  print_endline (json_line ~correct:(t.failed = 0) ~attempted:t.attempted ~failed:t.failed metrics);
  if t.failed > 0 then exit 1

(* Count windows only ([seconds] = 0): seed, same seed again, next seed. *)
let selftest ~names ~seed =
  let ok = ref true in
  List.iter
    (fun name ->
      let go seed = ((List.assoc name workloads) ~seed ~seconds:0.0 ~trace:false).result in
      let a = go seed and b = go seed and c = go (seed + 1) in
      let same = a.counts = b.counts && a.digest = b.digest in
      let differs = a.digest <> c.digest in
      List.iter (fun (n, v) -> say "  %s %s = %.17g" name n v) a.counts;
      say "%s: same seed -> identical stream and counts: %b; next seed -> different stream: %b"
        name same differs;
      if not (same && differs && a.tally.failed = 0) then ok := false)
    names;
  if not !ok then exit 1

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1\n\
    \       main.exe --selftest [--workload NAME] [--seed N]\n\
     workloads: wve-setup wve-churn zipf-inject durable-failover";
  exit 2

let () =
  let workload = ref None and seed = ref 1 and seconds = ref None and trace = ref None in
  let self = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest when List.mem_assoc w workloads ->
        workload := Some w;
        parse rest
    | "--seed" :: n :: rest when int_of_string_opt n <> None ->
        seed := int_of_string n;
        parse rest
    | "--seconds" :: s :: rest when float_of_string_opt s <> None ->
        seconds := Some (float_of_string s);
        parse rest
    | "--trace" :: (("0" | "1") as t) :: rest ->
        trace := Some (t = "1");
        parse rest
    | "--selftest" :: rest ->
        self := true;
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !self then
    selftest ~seed:!seed
      ~names:(match !workload with Some w -> [ w ] | None -> List.map fst workloads)
  else
    match (!workload, !seconds, !trace) with
    | Some workload, Some seconds, Some trace -> run_one ~workload ~seed:!seed ~seconds ~trace
    | _ -> usage ()
