(* Simulated durable device: one per host, a namespace of append/write
   files with an explicit durability boundary.

   The device distinguishes what has been *written* (visible to the
   running process) from what has been *synced* (survives a crash). A
   crash drops every file's unsynced tail; the chaos layer can go
   further and tear the tail mid-record, flip a bit inside the synced
   region, or wipe the device entirely. All randomness — fsync latency
   draws, tear points, corruption offsets — comes from the device's own
   [Sim.Rng] stream, so disk behaviour replays exactly from the
   simulation seed without perturbing any other subsystem's draws. *)

type file = {
  mutable data : Bytes.t; (* backing storage, grown by doubling *)
  mutable len : int; (* written length *)
  mutable synced : int; (* durable prefix length *)
}

(* Mean modeled stall per fsync, seconds. *)
let fsync_latency = 5e-4

type t = {
  name : string;
  rng : Sim.Rng.t;
  files : (string, file) Hashtbl.t;
  counters : Sim.Stats.Counter.t;
  mutable io_stall : float; (* accumulated modeled fsync time *)
}

let create ~rng name =
  {
    name;
    rng;
    files = Hashtbl.create 8;
    counters = Sim.Stats.Counter.create ();
    io_stall = 0.0;
  }

let name t = t.name

let counters t = t.counters

let io_stall t = t.io_stall

let get_file t file =
  match Hashtbl.find_opt t.files file with
  | Some f -> f
  | None ->
      let f = { data = Bytes.create 256; len = 0; synced = 0 } in
      Hashtbl.replace t.files file f;
      f

let ensure_capacity f extra =
  let needed = f.len + extra in
  if needed > Bytes.length f.data then begin
    let cap = ref (max 256 (Bytes.length f.data)) in
    while !cap < needed do
      cap := !cap * 2
    done;
    let grown = Bytes.create !cap in
    Bytes.blit f.data 0 grown 0 f.len;
    f.data <- grown
  end

let append t ~file s =
  let f = get_file t file in
  ensure_capacity f (String.length s);
  Bytes.blit_string s 0 f.data f.len (String.length s);
  f.len <- f.len + String.length s;
  Sim.Stats.Counter.incr t.counters "media.append"

(* Replace the file's contents outright (checkpoint slots). The old
   durable contents are invalidated immediately ([synced] drops to 0
   before the new bytes land), so a crash between [write] and the next
   [fsync] leaves this file empty — alternating between two slot files
   is the checkpoint writers' sole protection. *)
let write t ~file s =
  let f = get_file t file in
  f.len <- 0;
  f.synced <- 0;
  ensure_capacity f (String.length s);
  Bytes.blit_string s 0 f.data 0 (String.length s);
  f.len <- String.length s;
  Sim.Stats.Counter.incr t.counters "media.write"

let fsync t ~file =
  let f = get_file t file in
  f.synced <- f.len;
  (* Modeled stall: accounted, not scheduled — the replica's logical
     control flow stays synchronous, while benchmarks still see the
     device-time cost of each durability point. *)
  t.io_stall <- t.io_stall +. (fsync_latency *. (0.5 +. Sim.Rng.float t.rng 1.0));
  Sim.Stats.Counter.incr t.counters "media.fsync"

let exists t ~file =
  match Hashtbl.find_opt t.files file with Some f -> f.len > 0 | None -> false

(* What the running process reads back: written contents, synced or not. *)
let read t ~file =
  match Hashtbl.find_opt t.files file with
  | None -> None
  | Some f when f.len = 0 -> None
  | Some f -> Some (Bytes.sub_string f.data 0 f.len)

let synced_length t ~file =
  match Hashtbl.find_opt t.files file with Some f -> f.synced | None -> 0

let length t ~file =
  match Hashtbl.find_opt t.files file with Some f -> f.len | None -> 0

let delete t ~file = Hashtbl.remove t.files file

(* Cut a file back to [len] bytes (WAL corrupt-suffix truncation). *)
let truncate t ~file len =
  match Hashtbl.find_opt t.files file with
  | None -> ()
  | Some f ->
      if len < f.len then begin
        f.len <- max 0 len;
        if f.synced > f.len then f.synced <- f.len
      end

let files t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.files [] |> List.sort String.compare

let total_bytes t = Hashtbl.fold (fun _ f acc -> acc + f.len) t.files 0

(* --- fault surface ------------------------------------------------------- *)

(* Power loss: every unsynced tail is gone. *)
let crash t =
  Hashtbl.iter (fun _ f -> f.len <- f.synced) t.files;
  Sim.Stats.Counter.incr t.counters "media.crash"

(* A torn write: the crash interrupted the device mid-sector, leaving a
   random prefix of the unsynced tail on disk. Replay must detect the
   half-written record and stop cleanly. *)
let tear t ~file =
  match Hashtbl.find_opt t.files file with
  | None -> ()
  | Some f ->
      if f.len > f.synced then begin
        let tail = f.len - f.synced in
        f.len <- f.synced + Sim.Rng.int t.rng tail;
        Sim.Stats.Counter.incr t.counters "media.torn"
      end

(* Bit rot / tampering inside the durable region. *)
let corrupt t ~file =
  match Hashtbl.find_opt t.files file with
  | None -> false
  | Some f ->
      if f.synced = 0 then false
      else begin
        let off = Sim.Rng.int t.rng f.synced in
        let bit = Sim.Rng.int t.rng 8 in
        Bytes.set f.data off (Char.chr (Char.code (Bytes.get f.data off) lxor (1 lsl bit)));
        Sim.Stats.Counter.incr t.counters "media.corrupt";
        true
      end

(* Corrupt some file on the device (deterministic pick among non-empty
   files, sorted for replayability). *)
let corrupt_any t =
  let candidates =
    List.filter (fun file -> synced_length t ~file > 0) (files t) |> Array.of_list
  in
  if Array.length candidates = 0 then false
  else corrupt t ~file:(Sim.Rng.pick t.rng candidates)

(* Tear some file on the device with an unsynced tail (deterministic
   pick, sorted for replayability). *)
let tear_any t =
  let candidates =
    List.filter (fun file -> length t ~file > synced_length t ~file) (files t)
    |> Array.of_list
  in
  if Array.length candidates = 0 then false
  else begin
    tear t ~file:(Sim.Rng.pick t.rng candidates);
    true
  end

let wipe t =
  Hashtbl.reset t.files;
  Sim.Stats.Counter.incr t.counters "media.wipe"
