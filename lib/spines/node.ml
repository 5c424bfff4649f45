(* Spines overlay daemon.

   Reimplements the Spines behaviours the paper's deployment relies on:

   - authenticated, encrypted links: every daemon-to-daemon message carries
     an HMAC under the deployment's group key. A daemon built without the
     key (the red team's recompiled open-source version) cannot produce
     valid traffic and is ignored by keyed peers.
   - intrusion-tolerant dissemination, the only mode Spire runs: every
     message, unicast included, is flooded with per-source rate limiting
     and leaves each link through one source-fair egress queue (one
     traffic class, round-robin across origins, refusing arrivals when
     full), so a compromised insider daemon cannot starve other sources.
     The code path the red team's patched-binary exploit targeted does
     not exist here. Relays skip the origin's neighbors that the origin
     reached itself (see [flood]).
   - hello-based liveness: each daemon tracks which of its own links are
     up, and flooding skips the dead ones.

   The [Link_msg] payload constructor is deliberately not exported:
   attack code cannot destructure overlay traffic (encryption) nor
   construct well-formed link messages without going through a daemon it
   controls (key capture). Replayed frames are rejected by (origin, seq)
   deduplication. *)

type node_id = Topology.node_id

type dst =
  | To_client of { node : node_id; client : int }
  | To_group of string
  | To_session of string (* a named session client attached to some daemon *)

type data = {
  origin : node_id;
  origin_client : int;
  data_seq : int;
  dst : dst;
  app_size : int;
  app_payload : Netbase.Packet.payload;
  unreached : node_id list; (* the origin's stamp: its neighbors down at send, ascending *)
  entry : string; (* manifest entry ({!Frame.entry}), encoded once at the origin *)
}

(* Link-level liveness probes: the only messages sent on their own, one
   HMAC each. An ack names the daemon whose hello it answers. *)
type link_inner =
  | Hello of { hfrom : node_id; hseq : int }
  | Hello_ack of { afrom : node_id; ato : node_id; hseq : int }

type Netbase.Packet.payload +=
  | Link_msg of { auth : string; inner : link_inner }

(* A coalesced frame: several data messages for the same neighbor under
   one HMAC. Data always leaves through the per-neighbor egress queue in
   such a frame. [fr_header] is the Wire-encoded manifest ({!Frame}); the
   receiver authenticates the frame and checks the manifest against
   [fr_msgs] before handling anything. *)
type Netbase.Packet.payload +=
  | Link_frame of { fr_auth : string; fr_header : string; fr_msgs : data list }

(* Client-to-daemon session protocol (the real Spines' remote client
   sessions): attach with a name, send into the overlay, receive
   deliveries. Authenticated with the same group key as links, so a
   machine without key material cannot attach or inject. Constructors are
   private to this module. *)
type session_inner =
  | Sess_attach of { sa_name : string; sa_groups : string list }
  | Sess_attach_ack of { sk_name : string }
  | Sess_send of {
      ss_name : string;
      ss_dst : dst;
      ss_size : int;
      ss_payload : Netbase.Packet.payload;
    }
  | Sess_deliver of {
      sd_origin : node_id;
      sd_seq : int;
      sd_size : int;
      sd_payload : Netbase.Packet.payload;
    }

type Netbase.Packet.payload += Session_wire of { s_auth : string; s_inner : session_inner }

let overhead_bytes = 80 (* overlay header + HMAC *)

type config = {
  topology : Topology.t;
  port : int;
  session_port : int; (* client-facing port for remote session clients *)
  group_key : string option; (* None models a build without the new encryption *)
}

(* Hello period and the silence after which a link is marked down, as
   every deployment daemon runs them (seconds). *)
let hello_period = 1.0

let hello_timeout = 3.5

(* Data messages/s accepted per origin. *)
let source_rate_limit = 2000.0

(* Attachment freshness bound (seconds). *)
let session_timeout = 5.0

(* Per-origin sequence horizon for dedup eviction, daemons and sessions. *)
let dedup_window = 4096

(* Per-neighbor egress queue bound (messages) and coalescing flush
   window (seconds). *)
let egress_bound = 256

let flush_window = 0.0005

let default_config ?(port = 8100) ?session_port ?group_key topology =
  {
    topology;
    port;
    session_port = (match session_port with Some p -> p | None -> port + 1);
    group_key;
  }

type client = {
  handler : src:node_id * int -> size:int -> Netbase.Packet.payload -> unit;
  groups : string list;
}

type bucket = { mutable tokens : float; mutable updated : float }

(* Fault-injection verdict for one outgoing link message. Consulted by
   [send_link] when a chaos injector is installed; the injector owns its
   own RNG so link faults replay deterministically from a chaos seed. *)
type fault_decision = { fd_drop : bool; fd_duplicate : bool; fd_delay : float }

let no_fault = { fd_drop = false; fd_duplicate = false; fd_delay = 0.0 }

(* One overlay link, seen from this daemon: the neighbor's liveness, and
   its egress — the bounded source-fair queue plus the pending flush event
   for the current coalesce window, if any. [flush] is that event's
   thunk, built once per link. *)
type link = {
  peer : node_id;
  mutable last_ack : float;
  mutable up : bool;
  eq : data Egress.t;
  mutable flush_event : Sim.Engine.event_id option;
  mutable flush : unit -> unit;
}

type t = {
  id : node_id;
  config : config;
  auth_sched : Crypto.Hmac.schedule option; (* group-key HMAC schedule, built once *)
  host : Netbase.Host.t;
  engine : Sim.Engine.t;
  trace : Sim.Trace.t;
  peer_addrs : (node_id, Netbase.Addr.Ip.t) Hashtbl.t;
  peer_by_ip : (Netbase.Addr.Ip.t, node_id) Hashtbl.t; (* inverse of [peer_addrs] *)
  links : link array; (* one per neighbor, sorted by peer id *)
  link_of_peer : (node_id, link) Hashtbl.t;
  clients : (int, client) Hashtbl.t;
  mutable seq : int;
  mutable hello_seq : int;
  dedup : Window.t;
  buckets : (node_id, bucket) Hashtbl.t;
  counters : Sim.Stats.Counter.t;
  sessions : (string, session_entry) Hashtbl.t; (* attached remote clients *)
  mutable running : bool;
  mutable timers : Sim.Engine.timer list;
  mutable exploit : string option;
  mutable fault_injector : (peer:node_id -> fault_decision) option;
  (* The last frame header this daemon MACed and its tag: flooding often
     sends the same manifest to several neighbors in a row. Exact because
     [auth_sched] never changes; a rekey must clear both. *)
  mutable last_header : string;
  mutable last_tag : string;
}

and session_entry = {
  mutable sess_ip : Netbase.Addr.Ip.t;
  mutable sess_port : int;
  mutable sess_last_seen : float;
  mutable sess_groups : string list; (* as of the latest attach *)
}

let id t = t.id

let counters t = t.counters

let is_running t = t.running

let set_peer_address t peer ip =
  (match Hashtbl.find_opt t.peer_addrs peer with
  | Some old when Hashtbl.find_opt t.peer_by_ip old = Some peer -> Hashtbl.remove t.peer_by_ip old
  | Some _ | None -> ());
  Hashtbl.replace t.peer_addrs peer ip;
  Hashtbl.replace t.peer_by_ip ip peer

let inject_exploit t name = t.exploit <- Some name

let set_fault_injector t f = t.fault_injector <- f

let dedup_evictions t = Window.evictions t.dedup

let dedup_retained t = Window.retained t.dedup

(* --- canonical encoding for authentication ----------------------------- *)

let encode_dst = function
  | To_client { node; client } -> Printf.sprintf "c:%d:%d" node client
  | To_group g -> Printf.sprintf "g:%s" g
  | To_session name -> Printf.sprintf "s:%s" name

let encode_link_inner = function
  | Hello { hfrom; hseq } -> Printf.sprintf "hello:%d:%d" hfrom hseq
  | Hello_ack { afrom; ato; hseq } -> Printf.sprintf "ack:%d:%d:%d" afrom ato hseq

let compute_auth t inner =
  match t.auth_sched with
  | Some sched -> Crypto.Hmac.mac_sched sched (encode_link_inner inner)
  | None -> ""

let auth_valid t ~auth inner =
  match t.auth_sched with
  | None -> true (* an unkeyed daemon cannot check anything *)
  | Some sched -> Crypto.Hmac.verify_sched sched ~tag:auth (encode_link_inner inner)

(* Length-prefixed, so no name or group list has a second spelling. *)
let encode_session_inner = function
  | Sess_attach { sa_name; sa_groups } ->
      String.concat ""
        (Printf.sprintf "sess-attach:%d:%s" (String.length sa_name) sa_name
        :: List.map (fun g -> Printf.sprintf ":%d:%s" (String.length g) g) sa_groups)
  | Sess_attach_ack { sk_name } -> Printf.sprintf "sess-ack:%s" sk_name
  | Sess_send { ss_name; ss_dst; ss_size; _ } ->
      Printf.sprintf "sess-send:%s:%s:%d" ss_name (encode_dst ss_dst) ss_size
  | Sess_deliver { sd_origin; sd_seq; sd_size; _ } ->
      Printf.sprintf "sess-deliver:%d:%d:%d" sd_origin sd_seq sd_size

let session_auth sched inner = Crypto.Hmac.mac_sched sched (encode_session_inner inner)

let session_auth_valid sched ~auth inner =
  Crypto.Hmac.verify_sched sched ~tag:auth (encode_session_inner inner)

(* --- link transmission -------------------------------------------------- *)

let transmit t ~ip ~size payload =
  Sim.Stats.Counter.incr t.counters "link.tx";
  Netbase.Host.udp_send t.host ~dst_ip:ip ~dst_port:t.config.port ~src_port:t.config.port ~size
    payload

(* Fault injection sits at the wire boundary: one verdict per hello or
   per frame, so a lossy link drops or delays a frame's coalesced
   payloads together, as a real lossy wire loses a datagram. The
   no-fault path calls [transmit] directly and allocates no thunk. *)
let send_wire t ~to_ ~size payload =
  match Hashtbl.find_opt t.peer_addrs to_ with
  | None -> Sim.Stats.Counter.incr t.counters "link.no_address"
  | Some ip ->
      let d =
        match t.fault_injector with None -> no_fault | Some inject -> inject ~peer:to_
      in
      if d.fd_drop then Sim.Stats.Counter.incr t.counters "chaos.dropped"
      else begin
        (* A delayed copy overtakes later undelayed traffic, so delay also
           models reordering. *)
        if d.fd_delay > 0.0 then begin
          Sim.Stats.Counter.incr t.counters "chaos.delayed";
          ignore
            (Sim.Engine.schedule t.engine ~delay:d.fd_delay (fun () ->
                 transmit t ~ip ~size payload))
        end
        else transmit t ~ip ~size payload;
        if d.fd_duplicate then begin
          Sim.Stats.Counter.incr t.counters "chaos.duplicated";
          transmit t ~ip ~size payload
        end
      end

let send_link t ~to_ inner =
  send_wire t ~to_ ~size:overhead_bytes
    (Link_msg { auth = compute_auth t inner; inner })

(* --- coalesced frames ---------------------------------------------------- *)

(* Per-sub-message framing cost replacing a full overlay header + HMAC. *)
let frame_sub_overhead = 12

let frame_auth t header =
  match t.auth_sched with
  | Some sched ->
      if not (String.equal header t.last_header) then begin
        t.last_tag <- Crypto.Hmac.mac_list_sched sched [ "frame:"; header ];
        t.last_header <- header
      end;
      t.last_tag
  | None -> ""

let frame_auth_valid t ~auth header =
  match t.auth_sched with
  | None -> true
  | Some sched -> Crypto.Hmac.verify_list_sched sched ~tag:auth [ "frame:"; header ]

let meta_of_dst = function
  | To_client { node; client } -> Frame.M_client { node; client }
  | To_group g -> Frame.M_group g
  | To_session s -> Frame.M_session s

(* The only way a [data] is made: its entry always encodes its own fields,
   so comparing a header with the carried entries is comparing it with
   the carried messages. *)
let make_data ~origin ~origin_client ~data_seq ~dst ~app_size ~unreached app_payload =
  let entry =
    Frame.entry
      { origin; origin_client; data_seq; dst = meta_of_dst dst; app_size; unreached }
  in
  { origin; origin_client; data_seq; dst; app_size; app_payload; unreached; entry }

let data_entry d = d.entry

let send_frame t ~to_ msgs =
  let header = Frame.encode_header data_entry msgs in
  (* The red team's corrupt-frames exploit: ship a frame whose HMAC
     covers a truncated manifest, so it passes authentication and must
     be caught by the manifest check. *)
  let header =
    match t.exploit with
    | Some "corrupt-frames" -> String.sub header 0 (String.length header - 1)
    | _ -> header
  in
  let size =
    List.fold_left (fun acc d -> acc + d.app_size + frame_sub_overhead) overhead_bytes msgs
  in
  send_wire t ~to_ ~size
    (Link_frame { fr_auth = frame_auth t header; fr_header = header; fr_msgs = msgs })

(* --- egress scheduling ----------------------------------------------------- *)

let flush_egress t l =
  l.flush_event <- None;
  match Egress.drain l.eq with
  | [] -> ()
  | batch -> send_frame t ~to_:l.peer batch

let schedule_flush t l =
  match l.flush_event with
  | Some _ -> () (* a flush for the current window is already pending *)
  | None -> l.flush_event <- Some (Sim.Engine.schedule t.engine ~delay:flush_window l.flush)

let enqueue_link t l (d : data) =
  if not (Egress.enqueue l.eq ~origin:d.origin d) then begin
    Sim.Stats.Counter.incr t.counters "egress.drop";
    if Obs.Flight.recording Obs.Flight.default then
      Obs.Flight.record Obs.Flight.default ~time:(Sim.Engine.now t.engine)
        ~severity:Obs.Flight.Warn ~subsystem:"spines" ~kind:"egress.drop"
        (Printf.sprintf "node %d dropped 1 toward %d (queue full)" t.id l.peer)
  end;
  schedule_flush t l

(* --- construction ------------------------------------------------------------ *)

let create ~engine ~trace ~host ~id config =
  let links =
    Array.map
      (fun peer ->
        { peer; last_ack = 0.0; up = true; eq = Egress.create ~capacity:egress_bound ();
          flush_event = None; flush = ignore })
      (Topology.neighbors config.topology id)
  in
  let t =
    {
      id;
      config;
      auth_sched = Option.map (fun key -> Crypto.Hmac.schedule ~key) config.group_key;
      host;
      engine;
      trace;
      peer_addrs = Hashtbl.create 16;
      peer_by_ip = Hashtbl.create 16;
      links;
      link_of_peer = Hashtbl.create 16;
      clients = Hashtbl.create 8;
      seq = 0;
      hello_seq = 0;
      dedup = Window.create ~span:dedup_window ();
      buckets = Hashtbl.create 16;
      counters = Sim.Stats.Counter.create ();
      sessions = Hashtbl.create 16;
      running = false;
      timers = [];
      exploit = None;
      fault_injector = None;
      last_header = "";
      last_tag = "";
    }
  in
  Array.iter
    (fun l ->
      l.flush <- (fun () -> flush_egress t l);
      Hashtbl.replace t.link_of_peer l.peer l)
    links;
  (* Health probe; the port disambiguates internal/external daemons that
     share node ids. No-op unless a harness enabled [Obs.Probe]. *)
  Obs.Probe.register Obs.Probe.default
    ~name:(Printf.sprintf "spines.node.%d.%d" id config.port)
    (fun () ->
      let c name = Sim.Stats.Counter.get t.counters name in
      [
        ("chaos_dropped", float_of_int (c "chaos.dropped"));
        ("drops_total", float_of_int (c "egress.drop" + c "chaos.dropped"));
        ( "egress_len",
          float_of_int (Array.fold_left (fun acc l -> acc + Egress.length l.eq) 0 t.links) );
        ("running", if t.running then 1.0 else 0.0);
      ]);
  t

(* --- local delivery ------------------------------------------------------ *)

(* Relays [d] to a remote session client, if its attachment is fresh. *)
let deliver_session t entry (d : data) =
  match t.auth_sched with
  | Some sched
    when Sim.Engine.now t.engine -. entry.sess_last_seen <= session_timeout ->
      Sim.Stats.Counter.incr t.counters "session.delivered";
      let inner =
        Sess_deliver
          { sd_origin = d.origin; sd_seq = d.data_seq; sd_size = d.app_size;
            sd_payload = d.app_payload }
      in
      Netbase.Host.udp_send t.host ~dst_ip:entry.sess_ip ~dst_port:entry.sess_port
        ~src_port:t.config.session_port ~size:(d.app_size + overhead_bytes)
        (Session_wire { s_auth = session_auth sched inner; s_inner = inner })
  | Some _ | None -> ()

let deliver_local t (d : data) =
  let deliver_to client =
    Sim.Stats.Counter.incr t.counters "deliver";
    client.handler ~src:(d.origin, d.origin_client) ~size:d.app_size d.app_payload
  in
  match d.dst with
  | To_client { node; client } ->
      if node = t.id then begin
        match Hashtbl.find_opt t.clients client with
        | Some c -> deliver_to c
        | None -> Sim.Stats.Counter.incr t.counters "deliver.no_client"
      end
  | To_group g ->
      Hashtbl.iter (fun _ c -> if List.mem g c.groups then deliver_to c) t.clients;
      (* Most daemons host no sessions: skip the scan and its closure. *)
      if Hashtbl.length t.sessions > 0 then
        Hashtbl.iter
          (fun _ entry -> if List.mem g entry.sess_groups then deliver_session t entry d)
          t.sessions
  | To_session name -> (
      match Hashtbl.find_opt t.sessions name with
      | Some entry -> deliver_session t entry d
      | None -> ())

(* --- fairness (per-source rate limiting) ---------------------------------- *)

let bucket_for t origin =
  match Hashtbl.find_opt t.buckets origin with
  | Some b -> b
  | None ->
      let b = { tokens = source_rate_limit /. 10.0; updated = 0.0 } in
      Hashtbl.replace t.buckets origin b;
      b

let within_rate t origin =
  let b = bucket_for t origin in
  let now = Sim.Engine.now t.engine in
  let cap = source_rate_limit /. 10.0 in
  b.tokens <- Float.min cap (b.tokens +. ((now -. b.updated) *. source_rate_limit));
  b.updated <- now;
  if b.tokens >= 1.0 then begin
    b.tokens <- b.tokens -. 1.0;
    true
  end
  else false

(* --- dissemination -------------------------------------------------------- *)

(* The origin's stamp: its neighbors whose links are down now, ascending
   as [links] is; usually empty, and then nothing is allocated. *)
let unreached t = Array.fold_right (fun l acc -> if l.up then acc else l.peer :: acc) t.links []

(* Hands [d] to every live neighbor that may lack it, in sorted neighbor
   order. The origin ([from = None]) sends to all of them; a relay skips
   the sender, the origin, and each neighbor of the origin that the stamp
   does not name, since the origin reached those itself. Every daemon
   reachable over live links still gets [d] (DESIGN.md "Spines data
   plane"); a copy lost on a lossy link is no longer masked by a relay. *)
let flood t ~from (d : data) =
  for i = 0 to Array.length t.links - 1 do
    let l = t.links.(i) in
    let reached =
      match from with
      | None -> false
      | Some f ->
          f = l.peer || l.peer = d.origin
          || (Topology.adjacent t.config.topology d.origin l.peer
             && not (List.mem l.peer d.unreached))
    in
    if l.up && not reached then enqueue_link t l d
  done

let forward_data t ~from (d : data) =
  let before = Window.evictions t.dedup in
  let fresh = Window.mark t.dedup ~origin:d.origin ~seq:d.data_seq in
  let evicted = Window.evictions t.dedup - before in
  if evicted > 0 then Sim.Stats.Counter.incr ~by:evicted t.counters "dedup.evicted";
  if not fresh then Sim.Stats.Counter.incr t.counters "dedup.drop"
  else begin
    (* Source fairness: a flooding origin is clipped at every honest hop. *)
    if d.origin <> t.id && not (within_rate t d.origin) then
      Sim.Stats.Counter.incr t.counters "fairness.clipped"
    else begin
      deliver_local t d;
      match d.dst with
      | To_client { node; _ } when node = t.id -> ()
      | To_client _ | To_group _ | To_session _ -> flood t ~from d
    end
  end

(* --- link liveness ----------------------------------------------------------- *)

let mark_neighbor t n ~up =
  match Hashtbl.find_opt t.link_of_peer n with
  | None -> ()
  | Some s ->
      if s.up <> up then begin
        s.up <- up;
        if Obs.Flight.recording Obs.Flight.default then
          Obs.Flight.record Obs.Flight.default ~time:(Sim.Engine.now t.engine)
            ~severity:(if up then Obs.Flight.Info else Obs.Flight.Warn)
            ~subsystem:"spines"
            ~kind:(if up then "link.up" else "link.down")
            (Printf.sprintf "node %d: link to %d %s" t.id n (if up then "up" else "down"));
        Sim.Trace.record t.trace ~time:(Sim.Engine.now t.engine) ~category:"spines"
          "node %d: link to %d %s" t.id n (if up then "up" else "down")
      end

let hello_tick t =
  let now = Sim.Engine.now t.engine in
  Hashtbl.iter
    (fun n state ->
      if state.up && now -. state.last_ack > hello_timeout then
        mark_neighbor t n ~up:false)
    t.link_of_peer;
  t.hello_seq <- t.hello_seq + 1;
  Array.iter
    (fun l -> send_link t ~to_:l.peer (Hello { hfrom = t.id; hseq = t.hello_seq }))
    t.links

let handle_hello_ack t ~afrom =
  match Hashtbl.find_opt t.link_of_peer afrom with
  | Some s ->
      s.last_ack <- Sim.Engine.now t.engine;
      if not s.up then mark_neighbor t afrom ~up:true
  | None -> ()

(* --- receive ---------------------------------------------------------------- *)

(* An ack proves the link only if it comes from the peer that owns the
   source address, answers this daemon, and answers one of its hellos
   from the last [hello_timeout]: a replayed old ack cannot keep a dead
   link up. *)
let handle_link_inner t ~from = function
  | Hello { hfrom; hseq } -> send_link t ~to_:hfrom (Hello_ack { afrom = t.id; ato = hfrom; hseq })
  | Hello_ack { afrom; ato; hseq } ->
      let rounds = Float.to_int (Float.ceil (hello_timeout /. hello_period)) in
      if afrom = from && ato = t.id && hseq <= t.hello_seq && hseq > t.hello_seq - rounds then
        handle_hello_ack t ~afrom

let peer_of_ip t ip = Hashtbl.find_opt t.peer_by_ip ip

let rec all_seen dedup = function
  | [] -> true
  | d :: ds -> Window.seen dedup ~origin:d.origin ~seq:d.data_seq && all_seen dedup ds

let receive t ~src ~dst_port:_ ~size:_ payload =
  if t.running then
    match payload with
    (* A frame whose every message this daemon already holds can only be
       dropped, message by message, as duplicates: exactly what its
       authentic copy would cause. So it is counted that way and nothing
       else happens; no MAC, decode or state is spent on it. *)
    | Link_frame { fr_msgs = _ :: _ as msgs; _ } when all_seen t.dedup msgs ->
        Sim.Stats.Counter.incr ~by:(List.length msgs) t.counters "dedup.drop"
    | Link_msg { auth; inner } -> (
        if not (auth_valid t ~auth inner) then begin
          Sim.Stats.Counter.incr t.counters "auth.reject";
          Sim.Trace.record t.trace ~time:(Sim.Engine.now t.engine) ~category:"spines"
            "node %d rejected unauthenticated link message from %s" t.id
            (Netbase.Addr.Ip.to_string src.Netbase.Addr.ip)
        end
        else
          match peer_of_ip t src.Netbase.Addr.ip with
          | Some from -> handle_link_inner t ~from inner
          | None -> Sim.Stats.Counter.incr t.counters "link.unknown_peer")
    | Link_frame { fr_auth; fr_header; fr_msgs } -> (
        if not (frame_auth_valid t ~auth:fr_auth fr_header) then begin
          Sim.Stats.Counter.incr t.counters "auth.reject";
          Sim.Trace.record t.trace ~time:(Sim.Engine.now t.engine) ~category:"spines"
            "node %d rejected unauthenticated link frame from %s" t.id
            (Netbase.Addr.Ip.to_string src.Netbase.Addr.ip)
        end
        else
          match peer_of_ip t src.Netbase.Addr.ip with
          | None -> Sim.Stats.Counter.incr t.counters "link.unknown_peer"
          | Some from -> (
              (* The manifest must be exactly the carried payloads'
                 entries; otherwise the whole frame is dropped — a
                 corrupted frame must never crash the daemon or deliver a
                 payload its manifest does not vouch for. *)
              if Frame.header_matches data_entry fr_header fr_msgs then begin
                let from = Some from in
                List.iter (fun d -> forward_data t ~from d) fr_msgs
              end
              else begin
                Sim.Stats.Counter.incr t.counters "frame.malformed";
                if Obs.Flight.recording Obs.Flight.default then
                  Obs.Flight.record Obs.Flight.default ~time:(Sim.Engine.now t.engine)
                    ~severity:Obs.Flight.Warn ~subsystem:"spines" ~kind:"frame.malformed"
                    (Printf.sprintf "node %d dropped malformed frame from %d" t.id from);
                Sim.Trace.record t.trace ~time:(Sim.Engine.now t.engine) ~category:"spines"
                  "node %d dropped malformed coalesced frame from %d" t.id from
              end))
    | _ -> Sim.Stats.Counter.incr t.counters "link.garbage"

(* --- lifecycle ---------------------------------------------------------------- *)

(* Remote session clients: attach / send, over the session port. *)
let receive_session t ~src payload =
  match (payload, t.auth_sched) with
  | Session_wire { s_auth; s_inner }, Some sched ->
      if not (session_auth_valid sched ~auth:s_auth s_inner) then
        Sim.Stats.Counter.incr t.counters "session.auth_reject"
      else begin
        match s_inner with
        | Sess_attach { sa_name; sa_groups } ->
            let entry =
              match Hashtbl.find_opt t.sessions sa_name with
              | Some e -> e
              | None ->
                  let e =
                    { sess_ip = src.Netbase.Addr.ip; sess_port = src.Netbase.Addr.port;
                      sess_last_seen = 0.0; sess_groups = [] }
                  in
                  Hashtbl.replace t.sessions sa_name e;
                  e
            in
            entry.sess_ip <- src.Netbase.Addr.ip;
            entry.sess_port <- src.Netbase.Addr.port;
            entry.sess_last_seen <- Sim.Engine.now t.engine;
            entry.sess_groups <- sa_groups;
            let ack = Sess_attach_ack { sk_name = sa_name } in
            Netbase.Host.udp_send t.host ~dst_ip:src.Netbase.Addr.ip
              ~dst_port:src.Netbase.Addr.port ~src_port:t.config.session_port
              ~size:overhead_bytes
              (Session_wire { s_auth = session_auth sched ack; s_inner = ack })
        | Sess_send { ss_name; ss_dst; ss_size; ss_payload } -> (
            match Hashtbl.find_opt t.sessions ss_name with
            | Some entry
              when Sim.Engine.now t.engine -. entry.sess_last_seen
                   <= session_timeout ->
                t.seq <- t.seq + 1;
                Sim.Stats.Counter.incr t.counters "session.send";
                forward_data t ~from:None
                  (make_data ~origin:t.id ~origin_client:0 ~data_seq:t.seq ~dst:ss_dst
                     ~app_size:ss_size ~unreached:(unreached t) ss_payload)
            | Some _ | None -> Sim.Stats.Counter.incr t.counters "session.not_attached")
        | Sess_attach_ack _ | Sess_deliver _ -> ()
      end
  | Session_wire _, None -> Sim.Stats.Counter.incr t.counters "session.no_key"
  | _, _ -> Sim.Stats.Counter.incr t.counters "session.garbage"

let start t =
  if t.running then invalid_arg "Node.start: already running";
  t.running <- true;
  Netbase.Host.udp_bind t.host ~port:t.config.port (fun ~src ~dst_port ~size payload ->
      receive t ~src ~dst_port ~size payload);
  Netbase.Host.udp_bind t.host ~port:t.config.session_port
    (fun ~src ~dst_port:_ ~size:_ payload -> if t.running then receive_session t ~src payload);
  let now = Sim.Engine.now t.engine in
  Hashtbl.iter (fun _ s -> s.last_ack <- now) t.link_of_peer;
  let hello = Sim.Engine.every t.engine ~period:hello_period (fun () -> hello_tick t) in
  t.timers <- [ hello ]

let stop t =
  if t.running then begin
    t.running <- false;
    Netbase.Host.udp_unbind t.host ~port:t.config.port;
    Netbase.Host.udp_unbind t.host ~port:t.config.session_port;
    Hashtbl.reset t.sessions;
    (* Queued egress dies with the daemon: cancel pending flushes and
       drop whatever was waiting for a coalesce window. *)
    Array.iter
      (fun l ->
        (match l.flush_event with
        | Some ev -> Sim.Engine.cancel t.engine ev
        | None -> ());
        l.flush_event <- None;
        Egress.clear l.eq)
      t.links;
    List.iter (Sim.Engine.cancel_timer t.engine) t.timers;
    t.timers <- []
  end

(* --- client API ----------------------------------------------------------------- *)

let register_client t ~client ?(groups = []) handler =
  if Hashtbl.mem t.clients client then
    invalid_arg (Printf.sprintf "Node.register_client: client %d exists on node %d" client t.id);
  Hashtbl.replace t.clients client { handler; groups }

let send t ~client ~size dst payload =
  if not t.running then Sim.Stats.Counter.incr t.counters "send.not_running"
  else begin
    t.seq <- t.seq + 1;
    let d =
      make_data ~origin:t.id ~origin_client:client ~data_seq:t.seq ~dst ~app_size:size
        ~unreached:(unreached t) payload
    in
    Sim.Stats.Counter.incr t.counters "send";
    forward_data t ~from:None d
  end

(* --- remote session client -------------------------------------------------- *)

module Session = struct
  (* A named client on a separate machine, attached to one overlay daemon
     at a time with heartbeat re-attachment and automatic failover to the
     next daemon when the current one goes silent — how proxies and HMIs
     reach the overlay in Spire. *)

  type session = {
    sess_name : string;
    sess_groups : string list; (* sent with every attach *)
    engine : Sim.Engine.t;
    trace : Sim.Trace.t;
    host : Netbase.Host.t;
    sched : Crypto.Hmac.schedule; (* group-key HMAC schedule, built once *)
    daemons : (node_id * Netbase.Addr.Ip.t) array;
    daemon_session_port : int;
    local_port : int;
    mutable current : int; (* index into daemons *)
    mutable last_ack : float;
    mutable handler : (size:int -> Netbase.Packet.payload -> unit) option;
    sess_dedup : Window.t;
    sess_counters : Sim.Stats.Counter.t;
    mutable sess_timers : Sim.Engine.timer list;
    mutable sess_running : bool;
  }

  (* Re-attachment heartbeat, and the daemon silence that triggers
     failover to the next one (seconds). *)
  let attach_period = 1.0

  let failover_timeout = 3.0

  let create ?(local_port = 9001) ?(groups = []) ~engine ~trace ~host ~key ~daemons
      ~daemon_session_port ~name () =
    if daemons = [] then invalid_arg "Session.create: no daemons";
    {
      sess_name = name;
      sess_groups = groups;
      engine;
      trace;
      host;
      sched = Crypto.Hmac.schedule ~key;
      daemons = Array.of_list daemons;
      daemon_session_port;
      local_port;
      current = 0;
      last_ack = 0.0;
      handler = None;
      sess_dedup = Window.create ~span:dedup_window ();
      sess_counters = Sim.Stats.Counter.create ();
      sess_timers = [];
      sess_running = false;
    }

  let name s = s.sess_name

  let counters s = s.sess_counters

  let current_daemon s = fst s.daemons.(s.current)

  let set_handler s h = s.handler <- Some h

  let send_wire s inner =
    let _, ip = s.daemons.(s.current) in
    Netbase.Host.udp_send s.host ~dst_ip:ip ~dst_port:s.daemon_session_port
      ~src_port:s.local_port
      ~size:
        (match inner with
        | Sess_send { ss_size; _ } -> ss_size + overhead_bytes
        | _ -> overhead_bytes)
      (Session_wire { s_auth = session_auth s.sched inner; s_inner = inner })

  let attach_tick s =
    let now = Sim.Engine.now s.engine in
    if now -. s.last_ack > failover_timeout then begin
      (* Current daemon is silent (stopped, recovering, unreachable):
         rotate to the next one. *)
      let previous = s.current in
      s.current <- (s.current + 1) mod Array.length s.daemons;
      if s.current <> previous then begin
        Sim.Stats.Counter.incr s.sess_counters "failover";
        Sim.Trace.record s.trace ~time:now ~category:"session"
          "%s: daemon %d silent, failing over to daemon %d" s.sess_name
          (fst s.daemons.(previous))
          (fst s.daemons.(s.current))
      end
    end;
    send_wire s (Sess_attach { sa_name = s.sess_name; sa_groups = s.sess_groups })

  let receive s payload =
    match payload with
    | Session_wire { s_auth; s_inner } ->
        if not (session_auth_valid s.sched ~auth:s_auth s_inner) then
          Sim.Stats.Counter.incr s.sess_counters "auth_reject"
        else begin
          match s_inner with
          | Sess_attach_ack _ -> s.last_ack <- Sim.Engine.now s.engine
          | Sess_deliver { sd_origin; sd_seq; sd_size; sd_payload } ->
              (* Stale double-attachments during failover may duplicate. *)
              let before = Window.evictions s.sess_dedup in
              let fresh = Window.mark s.sess_dedup ~origin:sd_origin ~seq:sd_seq in
              let evicted = Window.evictions s.sess_dedup - before in
              if evicted > 0 then
                Sim.Stats.Counter.incr ~by:evicted s.sess_counters "dedup.evicted";
              if fresh then begin
                Sim.Stats.Counter.incr s.sess_counters "delivered";
                match s.handler with
                | Some h -> h ~size:sd_size sd_payload
                | None -> ()
              end
          | Sess_attach _ | Sess_send _ -> ()
        end
    | _ -> Sim.Stats.Counter.incr s.sess_counters "garbage"

  let start s =
    if s.sess_running then invalid_arg "Session.start: already running";
    s.sess_running <- true;
    Netbase.Host.udp_bind s.host ~port:s.local_port (fun ~src:_ ~dst_port:_ ~size:_ payload ->
        receive s payload);
    s.last_ack <- Sim.Engine.now s.engine;
    send_wire s (Sess_attach { sa_name = s.sess_name; sa_groups = s.sess_groups });
    s.sess_timers <-
      [ Sim.Engine.every s.engine ~period:attach_period (fun () -> attach_tick s) ]

  let stop s =
    if s.sess_running then begin
      s.sess_running <- false;
      Netbase.Host.udp_unbind s.host ~port:s.local_port;
      List.iter (Sim.Engine.cancel_timer s.engine) s.sess_timers;
      s.sess_timers <- []
    end

  let send s ~size dst payload =
    Sim.Stats.Counter.incr s.sess_counters "sent";
    send_wire s
      (Sess_send
         { ss_name = s.sess_name; ss_dst = dst; ss_size = size; ss_payload = payload })
end
