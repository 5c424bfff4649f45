(** Simulated durable device: per-host named files with an explicit
    written/synced boundary, deterministic fsync-latency accounting, and
    a fault surface (crash, torn write, bit corruption, wipe) driven by
    the device's own [Sim.Rng] stream. *)

type t

val create : rng:Sim.Rng.t -> string -> t

val name : t -> string

val counters : t -> Sim.Stats.Counter.t

(** Accumulated modeled fsync stall time, seconds. *)
val io_stall : t -> float

(** Append bytes to a file (created on first use). Unsynced until
    {!fsync}. *)
val append : t -> file:string -> string -> unit

(** Replace a file's contents outright. Unsynced until {!fsync}. *)
val write : t -> file:string -> string -> unit

(** Advance the file's durable prefix to its written length. *)
val fsync : t -> file:string -> unit

val exists : t -> file:string -> bool

(** Full written contents as the running process sees them; [None] when
    absent or empty. *)
val read : t -> file:string -> string option

val synced_length : t -> file:string -> int

val length : t -> file:string -> int

val delete : t -> file:string -> unit

(** Cut [file] back to [len] bytes (no-op if already shorter). *)
val truncate : t -> file:string -> int -> unit

(** File names present, sorted. *)
val files : t -> string list

val total_bytes : t -> int

(** Power loss: drop every file's unsynced tail. *)
val crash : t -> unit

(** Torn write: keep a random prefix of [file]'s unsynced tail. *)
val tear : t -> file:string -> unit

(** Flip one random bit inside [file]'s durable region; [false] if there
    was nothing durable to corrupt. *)
val corrupt : t -> file:string -> bool

(** Corrupt a deterministically chosen non-empty file on the device. *)
val corrupt_any : t -> bool

(** Tear a deterministically chosen file with an unsynced tail; [false]
    if every file is fully synced. *)
val tear_any : t -> bool

(** Destroy the device contents entirely. *)
val wipe : t -> unit
