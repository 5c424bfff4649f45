(** The Fig. 3 red-team testbed: enterprise network (historian,
    workstation) behind a corporate firewall/router, connected to the two
    parallel operations networks — the commercial SCADA system and
    Spire. *)

type t = {
  engine : Sim.Engine.t;
  trace : Sim.Trace.t;
  enterprise_switch : Netbase.Switch.t;
  enterprise_pcap : Netbase.Pcap.t;
  historian_host : Netbase.Host.t;
  workstation : Netbase.Host.t;
  router : Netbase.Router.t;
  commercial : Spire.Commercial.t;
  spire : Spire.Deployment.t;
  historian : Scada.Historian.t;
}

(** Spire runs {!Prime.Config.red_team}. [spire_hardened:false] builds
    Spire without the Section III-B hardening — the ablation behind the
    paper's "lessons learned". *)
val create :
  ?scenario:Plc.Power.scenario ->
  ?spire_hardened:bool ->
  engine:Sim.Engine.t ->
  trace:Sim.Trace.t ->
  unit ->
  t

val commercial : t -> Spire.Commercial.t

val spire : t -> Spire.Deployment.t

val engine : t -> Sim.Engine.t

(** Reconnaissance target lists. *)
val commercial_targets : t -> Netbase.Addr.Ip.t list

val spire_targets : t -> Netbase.Addr.Ip.t list
