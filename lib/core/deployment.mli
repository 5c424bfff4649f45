(** Spire deployment builder: the full Fig. 2/3 architecture in the
    simulator — hardened dual-homed replica machines running internal and
    external Spines daemons, a Prime replica and a SCADA master each;
    PLC/RTU sites behind proxies on dedicated cables; HMIs as Spines
    session clients.

    [hardened] applies the Section III-B measures (minimal-server OS,
    default-deny firewalls with explicit peer allows, static ARP, switch
    port security); building with [hardened:false] reproduces the
    configuration the red team would have faced without them. *)

(** Spines client-session id used for the Prime stream. *)
val prime_client : int

(** Spines client-session id used for master-to-master SCADA traffic. *)
val scada_client : int

type replica_bundle = {
  r_host : Netbase.Host.t;
  r_internal_nic : Netbase.Host.nic;
  r_external_nic : Netbase.Host.nic;
  r_internal_node : Spines.Node.t;
  r_external_node : Spines.Node.t;
  r_replica : Prime.Replica.t;
  r_master : Scada.Master.t;
  r_keypair : Crypto.Signature.keypair;
  r_durable : Scada.Durable.t option;  (** always [Some]: every replica has a store *)
}

type proxy_bundle = {
  p_index : int;
  p_spec : Plc.Power.plc_spec;
  p_host : Netbase.Host.t;
  p_session : Spines.Node.Session.session;
  p_proxy : Scada.Proxy.t;  (** Modbus or DNP3 toward the site's device *)
  p_client : Prime.Client.t;
  p_plc_host : Netbase.Host.t;
  p_breakers : Plc.Breaker.t array;
}

type hmi_bundle = {
  h_index : int;
  h_host : Netbase.Host.t;
  h_session : Spines.Node.Session.session;
  h_hmi : Scada.Hmi.t;
  h_client : Prime.Client.t;
}

type t

(** Build and start a deployment. [dnp3_plcs] names the scenario sites to
    deploy as DNP3 RTUs instead of Modbus PLCs. [switch_bandwidth]
    overrides both switches' per-port serialization rate (bytes/s) to
    model constrained substation networking. [probe_label] suffixes
    every probe this build registers ("@s03") so multiple deployments —
    one per shard — share one probe registry without colliding. *)
val create :
  ?hardened:bool ->
  ?n_hmis:int ->
  ?proxy_poll_period:float ->
  ?dnp3_plcs:string list ->
  ?switch_bandwidth:float ->
  ?probe_label:string ->
  engine:Sim.Engine.t ->
  trace:Sim.Trace.t ->
  config:Prime.Config.t ->
  Plc.Power.scenario ->
  t

val engine : t -> Sim.Engine.t

val trace : t -> Sim.Trace.t

val keystore : t -> Crypto.Signature.keystore

val config : t -> Prime.Config.t

val scenario : t -> Plc.Power.scenario

(** The electrical model derived from the scenario topology. *)
val power_model : t -> Power.Model.t

(** The live electrical overlay co-simulating on the deployment's engine.
    Breaker positions drive it; it never commands breakers. RTU analog
    images sample its measurement points. *)
val power_net : t -> Power.Net.t

val replicas : t -> replica_bundle array

(** The durable store of replica [i]. *)
val durable : t -> int -> Scada.Durable.t

(** The most advanced view any running replica has reached (a cleanly
    restarted replica re-enters at view 0, so this is the authoritative
    view). *)
val max_view : t -> int

(** Leader of {!max_view} under this deployment's Prime configuration. *)
val current_leader : t -> int

val proxies : t -> proxy_bundle array

val hmis : t -> hmi_bundle array

val internal_switch : t -> Netbase.Switch.t

val external_switch : t -> Netbase.Switch.t

(** Mirror-port captures of the two networks (MANA's inputs). *)
val internal_pcap : t -> Netbase.Pcap.t

val external_pcap : t -> Netbase.Pcap.t

(** Locate a breaker by name across all sites. *)
val find_breaker : t -> string -> (proxy_bundle * Plc.Breaker.t) option

(** Proactive recovery: stop everything on replica [i]'s machine. *)
val take_down_replica : t -> int -> unit

(** Bring replica [i] back from a clean image (protocol and application
    state wiped; catchup or state transfer rebuilds). *)
val bring_up_replica_clean : t -> int -> unit

(** Restart that keeps the machine's disk: recover the durable state
    locally (checkpoint + WAL replay) and rely on Prime catchup only for
    the suffix. When the device holds nothing installable the replica
    rejoins through state transfer, as a clean one does. *)
val bring_up_replica_intact : t -> int -> unit

(** Section III-A assumption-breach recovery: every master resets,
    replication restarts, proxies re-report the field ground truth. *)
val ground_truth_reset : t -> unit
