(* Sharded grid: one full Spire deployment per substation shard, plus
   the thin coordination tier for cross-shard reads.

   Each shard is a complete Fig. 2/3 stack — its own switches, hardened
   replica machines, Prime-replicated master group, proxies, and HMIs —
   built from the shard map's scenario slice. Shards share one simulation
   engine and trace but nothing on the wire: their networks are disjoint,
   so per-shard addressing and keys never collide and a shard saturating
   its switches cannot slow its neighbours. That isolation is the whole
   point of the scale-out: aggregate switch bandwidth scales with the
   shard count, and each shard's display pushes (one group message per
   replica) reach only its own HMIs.

   Cross-shard reads go through [overview]: one aggregated query per
   shard — not one round trip per device — each answered under the same
   f + 1 trust argument the HMIs use. A shard's answer is accepted only
   when f + 1 of its replicas agree on the application-state digest, so
   a compromised master cannot forge a grid-wide picture. *)

type shard = { s_index : int; s_label : string; s_deployment : Deployment.t }

type t = {
  engine : Sim.Engine.t;
  trace : Sim.Trace.t;
  map : Scada.Shard.t;
  shard_bundles : shard array;
}

let create ?hardened ?n_hmis ?proxy_poll_period ?dnp3_plcs ?switch_bandwidth ~engine ~trace
    ~config ~shards scenario =
  let map = Scada.Shard.create ~shards scenario in
  let shard_bundles =
    Array.init shards (fun s ->
        let label = Scada.Shard.label s in
        let deployment =
          Deployment.create ?hardened ?n_hmis ?proxy_poll_period ?dnp3_plcs ?switch_bandwidth
            ~probe_label:label ~engine ~trace ~config
            (Scada.Shard.sub_scenario map s)
        in
        { s_index = s; s_label = label; s_deployment = deployment })
  in
  { engine; trace; map; shard_bundles }

let engine t = t.engine

let map t = t.map

let shard_count t = Array.length t.shard_bundles

let shards t = t.shard_bundles

let deployment t s =
  if s < 0 || s >= Array.length t.shard_bundles then
    invalid_arg "Grid.deployment: shard out of range";
  t.shard_bundles.(s).s_deployment

(* Execution frontier of one shard: the furthest exec_seq any of its
   running replicas has reached. *)
let exec_frontier t s =
  Array.fold_left
    (fun acc (r : Deployment.replica_bundle) ->
      if Prime.Replica.is_running r.Deployment.r_replica then
        max acc (Prime.Replica.exec_seq r.Deployment.r_replica)
      else acc)
    0
    (Deployment.replicas (deployment t s))

(* --- cross-shard reads ------------------------------------------------------ *)

type shard_overview = {
  o_shard : int;
  o_label : string;
  o_agreed : bool; (* f + 1 replicas agreed on the state digest *)
  o_digest : string; (* the agreed digest ("" without agreement) *)
  o_exec_frontier : int;
  o_breakers : int;
  o_closed : int;
  o_energized : (string * [ `Energized | `De_energized | `Unknown ]) list;
      (* Tri-state: a feed whose path crosses a breaker this shard does
         not track reports [`Unknown] — the old boolean view read those
         segments conservatively open and conflated "dark" with "we
         cannot see that cable from here". *)
}

(* One aggregated query against one shard's master group. Every running
   replica votes with its application-state digest root — read off the
   state's incremental Merkle trees, which hash only what changed since
   the last read, and compared as raw 32-byte digests; hex is rendered
   once for the winner only. The
   answer is rendered from a replica inside the f + 1 majority, so it
   reflects a state at least one correct replica holds. *)
let query_shard t s =
  let b = t.shard_bundles.(s) in
  let replicas = Deployment.replicas b.s_deployment in
  let config = Deployment.config b.s_deployment in
  let votes = Hashtbl.create 8 in
  Array.iter
    (fun (r : Deployment.replica_bundle) ->
      if Prime.Replica.is_running r.Deployment.r_replica then begin
        let root = Scada.State.digest_root (Scada.Master.state r.Deployment.r_master) in
        let count, sample =
          match Hashtbl.find_opt votes root with
          | Some (c, sample) -> (c + 1, sample)
          | None -> (1, r.Deployment.r_master)
        in
        Hashtbl.replace votes root (count, sample)
      end)
    replicas;
  let winner =
    Hashtbl.fold
      (fun root (count, sample) acc ->
        match acc with
        | Some (_, best, _) when best >= count -> acc
        | _ -> Some (root, count, sample))
      votes None
  in
  match winner with
  | Some (root, count, master) when count >= config.Prime.Config.f + 1 ->
      let state = Scada.Master.state master in
      let scenario = Scada.State.scenario state in
      let breakers = Plc.Power.all_breakers scenario in
      let closed =
        List.length (List.filter (fun name -> Scada.State.reported_closed state name) breakers)
      in
      {
        o_shard = s;
        o_label = b.s_label;
        o_agreed = true;
        o_digest = Crypto.Sha256.to_hex root;
        o_exec_frontier = exec_frontier t s;
        o_breakers = List.length breakers;
        o_closed = closed;
        o_energized = Scada.State.energized_tri state;
      }
  | _ ->
      {
        o_shard = s;
        o_label = b.s_label;
        o_agreed = false;
        o_digest = "";
        o_exec_frontier = exec_frontier t s;
        o_breakers = Plc.Power.total_breakers (Scada.Shard.sub_scenario t.map s);
        o_closed = 0;
        o_energized = [];
      }

(* Grid-wide overview: one aggregated query per shard. *)
let overview t = List.init (Array.length t.shard_bundles) (fun s -> query_shard t s)

(* --- command routing -------------------------------------------------------- *)

(* Route a supervisory command to the shard owning the breaker; it is
   issued from that shard's first HMI, flowing through the normal
   ordered path and the proxies' f + 1 actuation gate. *)
let route_command t ~breaker ~close =
  match Scada.Shard.shard_of_breaker t.map breaker with
  | None -> Error (Printf.sprintf "unknown breaker %s" breaker)
  | Some s -> (
      let hmis = Deployment.hmis (deployment t s) in
      if Array.length hmis = 0 then Error (Printf.sprintf "shard %d has no HMI" s)
      else begin
        ignore (Scada.Hmi.command hmis.(0).Deployment.h_hmi ~breaker ~close);
        Ok s
      end)

let find_breaker t name =
  match Scada.Shard.shard_of_breaker t.map name with
  | None -> None
  | Some s -> Deployment.find_breaker (deployment t s) name
