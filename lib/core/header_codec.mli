(** Wire format of the Elmo header (Figure 2), bit-exact with the size
    accounting in {!Prule}.

    Layout, MSB-first: the upstream leaf rule (down ports, up ports,
    multipath flag); a presence bit then the upstream spine rule; a presence
    bit then the core bitmap; the downstream spine section; the downstream
    leaf section. A downstream section is a sequence of p-rules, each
    introduced by a 1 bit and carrying its bitmap followed by identifiers
    each trailed by a more-ids flag; a 0 bit terminates the sequence and a
    presence bit introduces the optional default bitmap.

    Serialization of headers produced by {!Encoding.header_for_sender} is
    lossless: [decode topo (encode topo h) = h]. *)

val encode : Topology.t -> Prule.header -> bytes
(** {!encode_into} on a fresh buffer of exactly {!encoded_size} bytes.
    Raises [Invalid_argument] if a p-rule has an empty switch list or any
    bitmap (upstream rule, core, p-rule or default) has the wrong width for
    its layer. *)

val decode : Topology.t -> bytes -> Prule.header
(** Raises [Bitio.Reader.Truncated] on short input. Trailing padding bits
    are ignored. *)

(** {1 Hostile-input decoding} *)

type decode_error =
  | Truncated  (** input ends inside a field *)
  | Id_out_of_range of { spine : bool; id : int }
      (** a p-rule identifier beyond the topology's switch count *)
  | Duplicate_id of { spine : bool; id : int }
      (** one switch claimed by two rules of the same section *)
  | Trailing_bits
      (** more than a byte of slack after the header, or nonzero padding *)

val pp_decode_error : Format.formatter -> decode_error -> unit

val decode_checked :
  Topology.t -> bytes -> (Prule.header, decode_error) result
(** Total decoder for bytes of unknown provenance: never raises, for any
    input whatsoever. Beyond {!decode}'s parsing it rejects switch ids
    outside the topology, a switch claimed twice within one downstream
    section (which also bounds the section's size), and nonzero or
    byte-plus trailing slack. Structural checks only — whether an accepted
    header {e over-delivers} relative to a group's intent is decided by the
    verify layer ([Verify.admit_header] subsumption). *)

val encode_into : Topology.t -> Prule.header -> Bitio.Sink.t -> int
(** The codec's one writer: every other encoder runs it (or its section
    writers). Writes into a caller-provided sink with no heap allocation on
    the success path (under the [zero-alloc] lint rule, with
    an [Allocs.probe] harness in the test suite). Returns the sink's end
    byte position ({!Bitio.Sink.finish}). Raises [Invalid_argument] on the
    same malformed headers as {!encode}, or if the sink's buffer is too
    small. *)

val encoded_size : Topology.t -> Prule.header -> int
(** Size in bytes without materializing (= {!Prule.header_bytes}). *)

(** {1 Layer popping (D2d)}

    Switches pop every section belonging to a layer the packet has passed,
    so the wire shrinks hop by hop while the remaining sections keep their
    order: the bits left after a pop are the tail of the {!Full} encoding's
    bits, padded to a whole byte. A stage names the sections still on the wire;
    the P4 [type] field of Figure 2a is modelled by carrying the stage
    alongside the packet. The data plane ([Fabric.inject]) serializes a
    packet once and reads each popped stage's size from {!stage_bits}
    rather than re-encoding it. *)

type stage =
  | Full  (** as emitted by the sender hypervisor *)
  | After_u_leaf  (** sender leaf → sender-pod spine *)
  | After_u_spine  (** sender-pod spine → core *)
  | After_core  (** core → downstream pod spine *)
  | After_d_spine  (** any spine → downstream leaf *)

val stage_bits : Topology.t -> stage -> Prule.header -> int
(** Bits still on the wire at [stage]: the length of the {!Full} encoding
    from the first bit of the stage's outermost remaining section to its
    end. [stage_bits Full] is {!Prule.header_bits}; for popped stages it
    agrees with {!Prule.remaining_bits_after}. A packet carries
    [(stage_bits + 7) / 8] bytes. *)

val encode_parts : Topology.t -> Prule.header -> bytes list
(** The header split into separately byte-aligned parts, one per section or
    p-rule — the write-call units of the unoptimized encapsulation path.
    Each p-rule part is written as a one-rule section without a default;
    the section's default (or its absence) is a part of its own. Raises
    [Invalid_argument] on the headers {!encode} rejects. *)

val encode_per_rule_writes : Topology.t -> Prule.header -> bytes
(** Encodes the same header as {!encode}, but materializes every p-rule as a
    separately padded buffer before concatenating — modelling a hypervisor
    switch that issues one DMA write per header copy instead of one write
    for the whole rule list (§4.2). Functionally equivalent on parse only in
    size class, not bit-compatible; used by the Figure 7 benchmark to show
    the per-rule-write throughput penalty. *)
