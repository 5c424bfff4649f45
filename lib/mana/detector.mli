(** MANA: train per-feature Gaussian statistics and a k-means model on a
    baseline capture, then score subsequent windows passively and alert
    on persistent anomalies, tagged with the dominant feature's attack
    family. *)

type alert = {
  alert_time : float;
  score : float;
  dominant_feature : string;
  category : string; (* "arp-anomaly", "scan-or-probe", "volume-flood", ... *)
}

type t

(** Scores 1 s windows and alerts after two consecutive windows score
    above 6. *)
val create : engine:Sim.Engine.t -> trace:Sim.Trace.t -> unit -> t

val alerts : t -> alert list

val alert_categories : t -> string list

val windows_scored : t -> int

val is_trained : t -> bool

(** Train on the capture between [t0] and [t1]. Raises [Invalid_argument]
    on an empty baseline. *)
val train : t -> rng:Sim.Rng.t -> Netbase.Pcap.t -> t0:float -> t1:float -> unit

(** Score the next window (manual driving; normally use {!start}).
    Raises [Invalid_argument] if not trained. *)
val evaluate : t -> Netbase.Pcap.t -> unit

(** Score one window per period against a live capture. *)
val start : t -> Netbase.Pcap.t -> Sim.Engine.timer
