(** Crash-consistent controller replica: a live {!Controller.t} whose
    mutations are journaled to a {!Wire} log.

    Every mutation goes through {!apply}, which appends the op record
    before executing it (write-ahead) and appends a fresh snapshot record
    every [snapshot_every] ops. The wire bytes are the only journal and
    snapshot store: a crashed controller is rebuilt by {!Wire.load} +
    {!of_wire} — restore the newest decodable snapshot, replay the op
    suffix. Because the controller is deterministic in its op order, the
    recovered instance is bit-identical (s-rule occupancy, per-group
    headers, churn counters) to one that never crashed — the property the
    crash-recovery tests assert across randomized crash points.

    Restoration itself does not touch the fabric ({!Controller.restore}
    re-emits nothing — switch state survives a controller crash); only the
    replayed suffix drives hooks, and those re-installs are idempotent. *)

type t

val create :
  ?snapshot_every:int ->
  ?fabric_hooks:Controller.fabric_hooks ->
  ?incremental:bool ->
  ?durable:bool ->
  ?observer:(Journal.op -> unit) ->
  Topology.t ->
  Params.t ->
  t
(** [snapshot_every] defaults to 64 ops between automatic checkpoints.
    [durable] (default [false]) attaches a {!Wire.t} log: a genesis
    snapshot is written at epoch 0, every {!apply} appends the op record
    {e before} executing it (write-ahead), and every checkpoint appends a
    snapshot record. Without it the replica keeps no recovery state.
    [observer] is called with every op right before it is executed — the
    tap the telemetry flight recorder rides on. *)

val of_wire :
  ?snapshot_every:int ->
  ?fabric_hooks:Controller.fabric_hooks ->
  ?observer:(Journal.op -> unit) ->
  ?epoch:int ->
  Wire.loaded ->
  (t, string) result
(** Rebuild a durable replica from a loaded wire log: restore the chosen
    snapshot, replay the suffix ([observer] sees every replayed op), and
    seed a {e fresh} wire with the post-replay snapshot — the corrupt bytes
    are never appended to. [epoch] (default: the log's highest epoch)
    stamps the new log; a failover supervisor passes its bumped fencing
    epoch. [Error] when the log has no decodable snapshot, [epoch]
    regresses below the log's, or replay itself fails — never an
    exception. *)

val controller : t -> Controller.t

val wire : t -> Wire.t option
(** The attached durable log, when [durable] (or {!of_wire}) created one. *)

val epoch : t -> int
(** The fencing epoch stamped on appended records. *)

val set_epoch : t -> int -> unit
(** Raise the fencing epoch (monotonic; raises [Invalid_argument] on
    regression). *)

val apply : t -> Journal.op -> unit
(** Notify the observer, journal (durable replicas), execute,
    auto-checkpoint. *)

val checkpoint : t -> unit
(** Force a checkpoint: on a durable replica, append a snapshot record of
    the current state. *)

val installed_config : t -> Installed_config.t
(** The live controller's {!Installed_config.t} view, borrowed (see
    {!Controller.installed_config}): valid until the next {!apply}. *)
