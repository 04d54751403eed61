(* zipf-inject: the dataplane alone. Set-up installs the population and
   loads every sender's header into its [Hypervisor]; the timed part sends
   packets through [Hypervisor.encap_vxlan] and [Hypervisor.send] and checks
   each delivery with [Fabric.deliveries_correct]. Packets come from
   [sources] traffic sources taken in turn. Each draws the group Zipf(1.1)
   over ranks, through its own rank order drawn from the seed once per run,
   and the sender uniformly among the group's senders. Popularity does not
   follow group size and does not change during the run. One source would
   put 16% of all packets on a single group, whose size would then decide
   the run's figures; 64 sources keep them steady from seed to seed while
   the top 10% of groups still get 44% of packets (see README.md). Only the
   hypervisor, the codec and per-hop forwarding run; no control-plane work
   is timed. *)

open Harness

type pair = { sender : int; hv : Hypervisor.t; header : Prule.header }

type state = {
  pop : Population.t;
  fabric : Fabric.t;
  pairs : pair array array;  (** per group; empty when it has no header *)
  trees : Tree.t option array;
  ranked : int array;  (** groups with at least one pair *)
  cdf : float array;  (** Zipf(1.1) over ranks *)
  dropped : int;
}

let zipf_s = 1.1
let sources = 64
let count_window = 5_000
let block = 2_000
let payload_bytes = 64

let setup ~seed ~trace:_ =
  let pop = Population.build ~seed in
  let ids = Population.all_ids pop in
  let fabric, ctrl = Population.install pop ids in
  let hvs = Hashtbl.create 4096 in
  let hv_of h =
    match Hashtbl.find_opt hvs h with
    | Some hv -> hv
    | None ->
        let hv = Hypervisor.create fabric ~host:h in
        Hashtbl.add hvs h hv;
        hv
  in
  let dropped = ref 0 in
  let pairs =
    Array.map
      (fun g ->
        List.filter_map
          (fun (sender, role) ->
            if not (Population.is_sender role) then None
            else
              match Controller.header ctrl ~group:g ~sender with
              | None ->
                  incr dropped;
                  None
              | Some header ->
                  let hv = hv_of sender in
                  Hypervisor.install_sender hv ~group:g header;
                  Some { sender; hv; header })
          pop.Population.members.(g)
        |> Array.of_list)
      ids
  in
  let trees =
    Array.map (fun g -> Option.map (fun e -> e.Encoding.tree) (Controller.encoding ctrl ~group:g)) ids
  in
  let ranked = List.filter (fun g -> pairs.(g) <> [||]) (Array.to_list ids) |> Array.of_list in
  let weights = Array.init (Array.length ranked) (fun k -> Float.pow (float (k + 1)) (-.zipf_s)) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let acc = ref 0.0 in
  let cdf = Array.map (fun w -> acc := !acc +. (w /. total); !acc) weights in
  { pop; fabric; pairs; trees; ranked; cdf; dropped = !dropped }

let draw_rank cdf rng =
  let u = Rng.float rng 1.0 in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) > u then hi := mid else lo := mid + 1
  done;
  !lo

let l_encap = Spans.layer "hypervisor.encap_vxlan"
let l_send = Spans.layer "hypervisor.send"
let l_inject = Spans.layer "fabric.inject"
let l_decode = Spans.layer "header_codec.decode_checked"

let run st ~seconds ~trace =
  let topo = st.pop.Population.topo in
  let prng = Rng.split st.pop.Population.rng in
  let tally = tally () in
  say "zipf-inject: %d (group, sender) pairs loaded, %d dropped without a multicast header"
    (Array.fold_left (fun a p -> a + Array.length p) 0 st.pairs) st.dropped;
  let perms =
    Array.init sources (fun _ ->
        let perm = Array.copy st.ranked in
        Rng.shuffle prng perm;
        perm)
  in
  let payload = Bytes.make payload_bytes 'e' in
  let ph = phases ~block in
  (* Cost of the correctness oracle, [Fabric.deliveries_correct], per
     packet: it is reported as [check_ms] because every workload prints
     that name; it is not part of the packet path that [ops_per_s] and the
     op percentiles time. *)
  let checks = Samples.create () in
  let tx = ref 0 and ideal = ref 0 and hdr_wire = ref 0 and hdr_bytes = ref 0 and digest = ref 0 in
  let traced_hops = ref 0 in
  (* One packet: send it, check its delivery and, in a traced op, replay
     the send's forwarding alone and the switch parser's checked decode of
     the header bytes the encapsulation wrote. *)
  let packet ~g ~(p : pair) ~in_window ~tracing =
    let t0 = now_ns () in
    let outcome =
      match
        let packet = Spans.span l_encap (fun () -> Hypervisor.encap_vxlan p.hv ~group:g ~payload) in
        let report = Spans.span l_send (fun () -> Hypervisor.send p.hv ~group:g ~payload:payload_bytes) in
        (packet, report)
      with
      | sent -> Ok sent
      | exception e -> Error e
    in
    record ph ~warm:in_window (us_since t0);
    match outcome with
    | Error e -> Error ("send raised " ^ Printexc.to_string e)
    | Ok (None, _ | _, None) -> Error "no packet or no delivery report"
    | Ok (Some pkt, Some r) ->
        let tree = Option.get st.trees.(g) in
        let t1 = now_ns () in
        let delivered = Fabric.deliveries_correct r ~tree ~sender:p.sender in
        Samples.add checks (us_since t1 /. 1e3);
        if in_window then begin
          tx := !tx + r.Fabric.transmissions;
          hdr_wire := !hdr_wire + r.Fabric.header_bytes;
          ideal := !ideal + Tree.ideal_link_transmissions tree ~sender:p.sender;
          hdr_bytes := !hdr_bytes + Header_codec.encoded_size topo p.header;
          digest := Population.mix (Population.mix !digest g) p.sender
        end;
        let decoded =
          (not tracing)
          ||
          let r, inject_us =
            Spans.measure l_inject (fun () ->
                Fabric.inject st.fabric ~sender:p.sender ~group:g ~header:p.header ~payload:payload_bytes)
          in
          Spans.credit l_send inject_us;
          traced_hops := !traced_hops + r.Fabric.transmissions;
          match Vxlan.decode pkt with
          | Ok (_, inner) ->
              let bytes = Bytes.sub inner 0 (Header_codec.encoded_size topo p.header) in
              Result.is_ok (Spans.span l_decode (fun () -> Header_codec.decode_checked topo bytes))
          | Error _ -> false
        in
        if not delivered then Error "wrong delivery"
        else if not decoded then Error "undecodable packet"
        else Ok ()
  in
  let gc0 = gc_mark () in
  let t_start = now_ns () in
  let packets = ref 0 in
  while !packets < count_window + block || s_since t_start < seconds
        || (trace && Samples.count ph.traced = 0) do
    let in_window = !packets < count_window in
    trace_block ~trace ~warm:in_window ~block:!packets;
    let tracing = !Spans.on in
    let g = perms.(!packets mod sources).(draw_rank st.cdf prng) in
    let p = Rng.choice prng st.pairs.(g) in
    let verdict =
      match packet ~g ~p ~in_window ~tracing with
      | v -> v
      | exception e -> Error ("check raised " ^ Printexc.to_string e)
    in
    attempt tally (Result.is_ok verdict)
      (lazy
        (Printf.sprintf "group %d sender %d: %s" g p.sender
           (match verdict with Ok () -> "" | Error e -> e)));
    incr packets
  done;
  Spans.pause ();
  let all = all ph in
  let n = float count_window in
  let hops = float !tx /. n in
  (* Bytes on the wire against ideal multicast of the same packets. *)
  let extra =
    100.0
    *. Traffic.overhead_ratio ~payload:payload_bytes
         {
           Traffic.transmissions = !tx;
           ideal_transmissions = !ideal;
           header_bytes = !hdr_wire;
           delivered_hosts = 0;
           spurious_hosts = 0;
         }
  in
  say "zipf-inject: %d packets; packets_per_s %.0f; %.1f hops/packet (count window)" !packets
    (float (Samples.count all) /. (Samples.total all *. 1e-6)) hops;
  let counts =
    [
      ("extra_traffic_pct", extra);
      ("fabric.hops_per_pkt", hops);
      ("fabric.header_bytes_per_pkt", float !hdr_wire /. n);
      ("header_codec.header_bytes", float !hdr_bytes /. n);
    ]
  in
  let e2e =
    op_metrics ph @ [ metric "check_ms" "ms" (Samples.median_or_zero checks); metric "extra_traffic_pct" "%" extra ]
  in
  let layers =
    counts @ gc_metrics gc0 ~ops:(Samples.count all)
  in
  let layers =
    if not trace then layers
    else
      layers
      @ [
          ("hypervisor.encap_vxlan_us", Spans.mean_us l_encap);
          ("hypervisor.send_us", l_send.Spans.self_us /. float l_send.Spans.calls);
          ("header_codec.decode_checked_us", Spans.mean_us l_decode);
          ("fabric.inject_us", Spans.mean_us l_inject);
          ("fabric.us_per_hop", l_inject.Spans.total_us /. float !traced_hops);
          trace_overhead ph;
        ]
  in
  { tally; e2e; layers; counts; digest = !digest }
