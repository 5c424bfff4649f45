(* False data injection: a compromised RTU proxy replays a
   stale-consistent analog image while the physical grid changes
   underneath it.

   The proxy is the trust boundary the FDIA literature targets: it
   signs whatever it polls, so a foothold on the proxy machine lets the
   attacker rewrite the analog image BEFORE it enters the replicated
   system — no protocol message is malformed, no signature invalid, no
   ordered update lost. The replay is internally consistent (it was a
   real snapshot of a real power flow), which keeps every per-point
   plausibility check quiet. What the attacker cannot fake is
   consistency with the honest neighbours' telemetry and the reported
   breaker topology — exactly the ensemble test the chi-square bad-data
   detector runs.

   The binary (breaker status) path is deliberately left honest: the
   attack's point is that breaker-state invariants stay silent while
   only state estimation notices the lie. *)

type t = {
  fdia_site : string;
  fdia_proxy : Scada.Proxy.t;
  mutable fdia_frozen : (string * int) list option; (* snapshot replayed *)
  mutable fdia_forced : (string * float) list; (* breaker, time; newest first *)
}

let find_site deployment site =
  Array.fold_left
    (fun acc (p : Spire.Deployment.proxy_bundle) ->
      if acc = None && String.equal p.Spire.Deployment.p_spec.Plc.Power.plc_name site then
        Some p
      else acc)
    None
    (Spire.Deployment.proxies deployment)

(* Compromise the site's proxy: from the next poll on, the analog image
   it submits is frozen at the first post-compromise snapshot. *)
let launch deployment ~site =
  match find_site deployment site with
  | None -> Error (Printf.sprintf "unknown site %s" site)
  | Some bundle ->
      let proxy = bundle.Spire.Deployment.p_proxy in
      let t =
        {
          fdia_site = site;
          fdia_proxy = proxy;
          fdia_frozen = None;
          fdia_forced = [];
        }
      in
      let freeze readings =
        match t.fdia_frozen with
        | Some snapshot -> snapshot
        | None ->
            t.fdia_frozen <- Some readings;
            readings
      in
      if Scada.Proxy.set_analog_rewrite proxy (Some freeze) then Ok t
      else Error (Printf.sprintf "site %s is Modbus: no analog image to rewrite" site)

(* The physical half: flip a breaker at the substation, bypassing the
   supervisory path (an insider or a maintenance-channel actuation).
   The RTU reports the new position honestly — only the analogs lie. *)
let force_open t deployment ~breaker =
  match Spire.Deployment.find_breaker deployment breaker with
  | None -> Error (Printf.sprintf "unknown breaker %s" breaker)
  | Some (_, b) ->
      Plc.Breaker.force b Plc.Breaker.Open;
      t.fdia_forced <-
        (breaker, Sim.Engine.now (Spire.Deployment.engine deployment)) :: t.fdia_forced;
      Ok ()

(* Lose the foothold: the proxy polls honestly again. *)
let release t = ignore (Scada.Proxy.set_analog_rewrite t.fdia_proxy None : bool)

let site t = t.fdia_site

let frozen t = t.fdia_frozen <> None

(* Oldest first. *)
let forced t = List.rev t.fdia_forced
