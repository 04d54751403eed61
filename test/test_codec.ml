let topo = Topology.running_example ()
let fabric = Topology.facebook_fabric ()

(* Random well-formed headers for a topology. *)
let gen_header t =
  let open QCheck.Gen in
  let bitmap width =
    list_size (int_range 0 (min width 8)) (int_range 0 (width - 1))
    >>= fun bits -> return (Bitmap.of_list width bits)
  in
  let uprule ~down ~up =
    bitmap down >>= fun d ->
    bitmap up >>= fun u ->
    bool >>= fun m -> return { Prule.down = d; up = u; multipath = m }
  in
  let prules layer =
    let width, max_id =
      match layer with
      | `Spine -> (Topology.spine_downstream_width t, t.Topology.pods - 1)
      | `Leaf -> (Topology.leaf_downstream_width t, Topology.num_leaves t - 1)
    in
    list_size (int_range 0 4)
      ( bitmap width >>= fun bm ->
        list_size (int_range 1 3) (int_range 0 max_id) >>= fun ids ->
        return { Prule.bitmap = bm; switches = List.sort_uniq compare ids } )
  in
  let opt g = bool >>= fun p -> if p then g >>= fun x -> return (Some x) else return None in
  uprule ~down:(Topology.leaf_downstream_width t) ~up:(Topology.leaf_upstream_width t)
  >>= fun u_leaf ->
  opt (uprule ~down:(Topology.spine_downstream_width t) ~up:(Topology.spine_upstream_width t))
  >>= fun u_spine ->
  opt (bitmap (Topology.core_downstream_width t)) >>= fun core ->
  prules `Spine >>= fun d_spine ->
  opt (bitmap (Topology.spine_downstream_width t)) >>= fun d_spine_default ->
  prules `Leaf >>= fun d_leaf ->
  opt (bitmap (Topology.leaf_downstream_width t)) >>= fun d_leaf_default ->
  return
    { Prule.u_leaf; u_spine; core; d_spine; d_spine_default; d_leaf; d_leaf_default }

let arb_header t =
  QCheck.make
    ~print:(fun h -> Format.asprintf "%a" (Prule.pp t) h)
    (gen_header t)

let stages =
  Header_codec.
    [ Full; After_u_leaf; After_u_spine; After_core; After_d_spine ]

let prop_roundtrip t name =
  QCheck.Test.make ~name ~count:300 (arb_header t) (fun h ->
      Header_codec.decode t (Header_codec.encode t h) = h)

let prop_size_accounting t name =
  QCheck.Test.make ~name ~count:300 (arb_header t) (fun h ->
      Bytes.length (Header_codec.encode t h) = Prule.header_bytes t h)

(* Popping a layer leaves the tail of the one [Full] encoding. Reading that
   encoding with a [Bitio.Reader], the bits left at each section boundary
   are exactly [stage_bits] of the stage that starts there, so they never
   grow from one stage to the next. *)
let prop_stage_boundaries t name =
  QCheck.Test.make ~name ~count:300 (arb_header t) (fun h ->
      let r = Bitio.Reader.of_bytes (Header_codec.encode t h) in
      let skip n = for _ = 1 to n do ignore (Bitio.Reader.bit r : bool) done in
      let uprule ~down ~up = skip (down + up + 1) in
      let section width id_bits =
        while Bitio.Reader.bit r do
          skip width;
          skip id_bits;
          while Bitio.Reader.bit r do
            skip id_bits
          done
        done;
        if Bitio.Reader.bit r then skip width
      in
      let total = Prule.header_bits t h in
      let left = ref [] in
      let boundary () = left := (total - Bitio.Reader.pos r) :: !left in
      boundary ();
      uprule ~down:(Topology.leaf_downstream_width t)
        ~up:(Topology.leaf_upstream_width t);
      boundary ();
      if Bitio.Reader.bit r then
        uprule ~down:(Topology.spine_downstream_width t)
          ~up:(Topology.spine_upstream_width t);
      boundary ();
      if Bitio.Reader.bit r then skip (Topology.core_downstream_width t);
      boundary ();
      section (Topology.spine_downstream_width t) (Topology.spine_id_bits t);
      boundary ();
      section (Topology.leaf_downstream_width t) (Topology.leaf_id_bits t);
      let left = List.rev !left in
      let rec non_increasing = function
        | a :: (b :: _ as rest) -> a >= b && non_increasing rest
        | [ _ ] | [] -> true
      in
      left = List.map (fun stage -> Header_codec.stage_bits t stage h) stages
      && non_increasing left
      && Bitio.Reader.pos r = total
      && Bitio.Reader.remaining r < 8)

(* The symbolic meaning survives the wire: encoding then decoding an
   arbitrary header preserves its delivery predicate under the header-only
   interpretation ([Verify.header_pred]), for any sender position. Stronger
   than structural equality alone would suggest: it pins down that the
   codec cannot reorder, merge or drop rules in a way that changes what any
   switch would forward. *)
let prop_predicate_roundtrip t name =
  let arb = QCheck.pair (arb_header t) (QCheck.int_range 0 (Topology.num_hosts t - 1)) in
  QCheck.Test.make ~name ~count:300 arb (fun (h, sender) ->
      let ctx = Pred.create_ctx () in
      let before = Verify.header_pred ctx t ~sender h in
      let after =
        Verify.header_pred ctx t ~sender
          (Header_codec.decode t (Header_codec.encode t h))
      in
      Verify.equiv before after)

let prop_parts_concat t name =
  QCheck.Test.make ~name ~count:200 (arb_header t) (fun h ->
      Header_codec.encode_per_rule_writes t h
      = Bytes.concat Bytes.empty (Header_codec.encode_parts t h))

let test_empty_rule_list_rejected () =
  let bad =
    {
      Prule.u_leaf =
        {
          Prule.down = Bitmap.create (Topology.leaf_downstream_width topo);
          up = Bitmap.create (Topology.leaf_upstream_width topo);
          multipath = false;
        };
      u_spine = None;
      core = None;
      d_spine = [];
      d_spine_default = None;
      d_leaf = [ { Prule.bitmap = Bitmap.create 8; switches = [] } ];
      d_leaf_default = None;
    }
  in
  Alcotest.check_raises "empty switches"
    (Invalid_argument "Header_codec: p-rule with no switch identifiers") (fun () ->
      ignore (Header_codec.encode topo bad))

let test_wrong_width_rejected () =
  let bad =
    {
      Prule.u_leaf =
        {
          Prule.down = Bitmap.create 3;
          up = Bitmap.create (Topology.leaf_upstream_width topo);
          multipath = false;
        };
      u_spine = None;
      core = None;
      d_spine = [];
      d_spine_default = None;
      d_leaf = [];
      d_leaf_default = None;
    }
  in
  Alcotest.check_raises "width mismatch"
    (Invalid_argument "Header_codec: upstream rule width mismatch") (fun () ->
      ignore (Header_codec.encode topo bad))

let test_wrong_core_width_rejected () =
  (* Twelve pods: a 20-bit core bitmap would otherwise encode to one byte
     more than [encoded_size] accounts for. *)
  let bad =
    {
      Prule.u_leaf =
        {
          Prule.down = Bitmap.create (Topology.leaf_downstream_width fabric);
          up = Bitmap.create (Topology.leaf_upstream_width fabric);
          multipath = true;
        };
      u_spine = None;
      core = Some (Bitmap.create 20);
      d_spine = [];
      d_spine_default = None;
      d_leaf = [];
      d_leaf_default = None;
    }
  in
  let expected = Invalid_argument "Header_codec: core bitmap width mismatch" in
  Alcotest.check_raises "encode" expected (fun () ->
      ignore (Header_codec.encode fabric bad));
  Alcotest.check_raises "encode_into" expected (fun () ->
      let sink = Bitio.Sink.of_bytes (Bytes.create 256) in
      ignore (Header_codec.encode_into fabric bad sink : int));
  Alcotest.check_raises "encode_parts" expected (fun () ->
      ignore (Header_codec.encode_parts fabric bad))

let test_truncated_decode_raises () =
  let enc, _ =
    let tree = Tree.of_members topo [ 0; 1; 12; 42 ] in
    let srules = Srule_state.create topo ~fmax:10 in
    (Encoding.encode Params.default srules tree, srules)
  in
  let hd = Encoding.header_for_sender enc ~sender:0 in
  let bytes = Header_codec.encode topo hd in
  let truncated = Bytes.sub bytes 0 (Bytes.length bytes - 1) in
  Alcotest.check_raises "truncated" Bitio.Reader.Truncated (fun () ->
      ignore (Header_codec.decode topo truncated))

let tests =
  [
    QCheck_alcotest.to_alcotest (prop_roundtrip topo "roundtrip (example topo)");
    QCheck_alcotest.to_alcotest (prop_roundtrip fabric "roundtrip (fabric)");
    QCheck_alcotest.to_alcotest
      (prop_size_accounting topo "size accounting (example topo)");
    QCheck_alcotest.to_alcotest (prop_size_accounting fabric "size accounting (fabric)");
    QCheck_alcotest.to_alcotest
      (prop_predicate_roundtrip topo "predicate unchanged by codec (example topo)");
    QCheck_alcotest.to_alcotest
      (prop_predicate_roundtrip fabric "predicate unchanged by codec (fabric)");
    QCheck_alcotest.to_alcotest
      (prop_stage_boundaries topo "stage boundaries (example topo)");
    QCheck_alcotest.to_alcotest
      (prop_stage_boundaries fabric "stage boundaries (fabric)");
    QCheck_alcotest.to_alcotest (prop_parts_concat topo "parts concat = per-rule bytes");
    Alcotest.test_case "empty rule list rejected" `Quick test_empty_rule_list_rejected;
    Alcotest.test_case "wrong width rejected" `Quick test_wrong_width_rejected;
    Alcotest.test_case "wrong core width rejected" `Quick
      test_wrong_core_width_rejected;
    Alcotest.test_case "truncated decode raises" `Quick test_truncated_decode_raises;
  ]

(* Robustness: arbitrary bytes from the wire either decode or raise
   [Truncated] — no other exception can escape the parser. *)
let prop_decode_never_crashes =
  QCheck.Test.make ~name:"decode of random bytes is total (or Truncated)"
    ~count:500
    QCheck.(string_of_size Gen.(int_range 0 64))
    (fun s ->
      match Header_codec.decode topo (Bytes.of_string s) with
      | (_ : Prule.header) -> true
      | exception Bitio.Reader.Truncated -> true)

let tests =
  tests
  @ [
      QCheck_alcotest.to_alcotest prop_decode_never_crashes;
    ]
