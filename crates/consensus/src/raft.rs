//! Raft leader election and log replication on `simnet`.
//!
//! The Earth-observation provenance system \[87\] runs a consortium chain on
//! Raft (for ordering) combined with PBFT (for validation); this module
//! provides the Raft half: randomized election timeouts, terms, heartbeat
//! replication, majority commit, and crash injection for leader-failure
//! experiments. Message complexity is O(n) per decision — the contrast with
//! PBFT's O(n²) is one of the shapes experiment E1 reproduces.

use blockprov_crypto::sha256::{hash_parts, Hash256};
use blockprov_simnet::{Ctx, NodeId, Protocol, SimTime};
use std::collections::BTreeMap;

/// Raft wire messages.
#[derive(Debug, Clone)]
pub enum RaftMsg {
    /// Candidate solicits a vote.
    RequestVote {
        /// Candidate's term.
        term: u64,
        /// Index of the candidate's last log entry.
        last_log_index: u64,
        /// Term of the candidate's last log entry.
        last_log_term: u64,
    },
    /// Vote response.
    Vote {
        /// Voter's current term.
        term: u64,
        /// Whether the vote was granted.
        granted: bool,
    },
    /// Heartbeat / replication from the leader.
    AppendEntries {
        /// Leader's term.
        term: u64,
        /// Log index immediately before `entries`.
        prev_index: u64,
        /// Term at `prev_index`.
        prev_term: u64,
        /// Entries to append: `(term, payload digest)`.
        entries: Vec<(u64, Hash256)>,
        /// Leader's commit index.
        leader_commit: u64,
    },
    /// Follower's replication acknowledgement.
    AppendResp {
        /// Follower's term.
        term: u64,
        /// Whether the append matched.
        success: bool,
        /// Highest index replicated on the follower.
        match_index: u64,
    },
}

/// Node role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Passive replica.
    Follower,
    /// Election in progress.
    Candidate,
    /// Active leader.
    Leader,
}

const T_ELECT: u64 = 1;
const T_HEARTBEAT: u64 = 2;
const T_CRASH: u64 = 3;

/// A Raft node driving a replicated log of `total_requests` entries.
pub struct RaftNode {
    id: NodeId,
    n: usize,
    role: Role,
    term: u64,
    voted_for: Option<NodeId>,
    votes: usize,
    /// Log: 1-based; `log[0]` is a sentinel (term 0).
    log: Vec<(u64, Hash256)>,
    commit_index: u64,
    /// Leader state: highest replicated index per peer.
    match_index: Vec<u64>,
    next_index: Vec<u64>,
    /// Client workload: total entries to commit.
    total_requests: u64,
    appended_requests: u64,
    /// Commit timestamps by log index (leader-side measurement).
    pub commit_times: BTreeMap<u64, SimTime>,
    election_epoch: u64,
    /// Fail-stop at this virtual time, if set.
    crash_at: Option<SimTime>,
    crashed: bool,
    heartbeat_us: u64,
}

impl RaftNode {
    /// Create a node for an `n`-node cluster committing `total_requests`.
    pub fn new(id: NodeId, n: usize, total_requests: u64) -> Self {
        Self {
            id,
            n,
            role: Role::Follower,
            term: 0,
            voted_for: None,
            votes: 0,
            log: vec![(0, Hash256::ZERO)],
            commit_index: 0,
            match_index: vec![0; n],
            next_index: vec![1; n],
            total_requests,
            appended_requests: 0,
            commit_times: BTreeMap::new(),
            election_epoch: 0,
            crash_at: None,
            crashed: false,
            heartbeat_us: 50_000,
        }
    }

    /// Schedule a fail-stop crash at virtual time `at`.
    pub fn crash_at(mut self, at: SimTime) -> Self {
        self.crash_at = Some(at);
        self
    }

    /// Entries committed (excluding the sentinel).
    pub fn committed(&self) -> u64 {
        self.commit_index
    }

    /// Current role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// Current term.
    pub fn term(&self) -> u64 {
        self.term
    }

    /// Whether this node has fail-stopped.
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Deterministic payload digest for entry `i` (workload model).
    pub fn entry_digest(i: u64) -> Hash256 {
        hash_parts("raft-entry", &[&i.to_le_bytes()])
    }

    fn last_log_index(&self) -> u64 {
        self.log.len() as u64 - 1
    }

    fn last_log_term(&self) -> u64 {
        self.log.last().expect("sentinel").0
    }

    fn majority(&self) -> usize {
        self.n / 2 + 1
    }

    fn arm_election_timer(&mut self, ctx: &mut Ctx<'_, RaftMsg>) {
        self.election_epoch += 1;
        let jitter = ctx.rng.gen_range(150_000);
        let token = (T_ELECT << 56) | self.election_epoch;
        ctx.set_timer(150_000 + jitter, token);
    }

    fn become_follower(&mut self, ctx: &mut Ctx<'_, RaftMsg>, term: u64) {
        self.role = Role::Follower;
        self.term = term;
        self.voted_for = None;
        self.votes = 0;
        self.arm_election_timer(ctx);
    }

    fn become_candidate(&mut self, ctx: &mut Ctx<'_, RaftMsg>) {
        self.role = Role::Candidate;
        self.term += 1;
        self.voted_for = Some(self.id);
        self.votes = 1;
        ctx.broadcast(RaftMsg::RequestVote {
            term: self.term,
            last_log_index: self.last_log_index(),
            last_log_term: self.last_log_term(),
        });
        self.arm_election_timer(ctx);
        if self.n == 1 {
            self.become_leader(ctx);
        }
    }

    fn become_leader(&mut self, ctx: &mut Ctx<'_, RaftMsg>) {
        self.role = Role::Leader;
        // Entries already in the log correspond to client requests 0..len-1
        // (digests are index-deterministic), so a newly elected leader
        // resumes the workload exactly where its replicated prefix ends.
        self.appended_requests = self.last_log_index();
        let next = self.last_log_index() + 1;
        self.next_index.iter_mut().for_each(|x| *x = next);
        self.match_index.iter_mut().for_each(|x| *x = 0);
        self.match_index[self.id] = self.last_log_index();
        self.heartbeat(ctx);
        let token = T_HEARTBEAT << 56;
        ctx.set_timer(self.heartbeat_us, token);
    }

    fn append_client_entries(&mut self) {
        if self.role != Role::Leader {
            return;
        }
        // Admit up to 16 new client entries per heartbeat tick.
        let batch = 16.min(self.total_requests - self.appended_requests);
        for _ in 0..batch {
            let digest = Self::entry_digest(self.appended_requests);
            self.log.push((self.term, digest));
            self.appended_requests += 1;
        }
        self.match_index[self.id] = self.last_log_index();
    }

    fn heartbeat(&mut self, ctx: &mut Ctx<'_, RaftMsg>) {
        self.append_client_entries();
        for peer in 0..self.n {
            if peer == self.id {
                continue;
            }
            let prev_index = self.next_index[peer] - 1;
            let prev_term = self.log[prev_index as usize].0;
            let entries: Vec<(u64, Hash256)> = self.log[self.next_index[peer] as usize..].to_vec();
            ctx.send(
                peer,
                RaftMsg::AppendEntries {
                    term: self.term,
                    prev_index,
                    prev_term,
                    entries,
                    leader_commit: self.commit_index,
                },
            );
        }
        self.advance_commit(ctx);
    }

    fn advance_commit(&mut self, ctx: &mut Ctx<'_, RaftMsg>) {
        if self.role != Role::Leader {
            return;
        }
        // Largest index replicated on a majority with an entry of this term.
        for idx in (self.commit_index + 1..=self.last_log_index()).rev() {
            let replicated = self.match_index.iter().filter(|&&m| m >= idx).count();
            if replicated >= self.majority() && self.log[idx as usize].0 == self.term {
                for i in self.commit_index + 1..=idx {
                    self.commit_times.entry(i).or_insert(ctx.now());
                }
                self.commit_index = idx;
                break;
            }
        }
    }

    fn check_crash(&mut self, now: SimTime) -> bool {
        if self.crashed {
            return true;
        }
        if let Some(at) = self.crash_at {
            if now >= at {
                self.crashed = true;
                return true;
            }
        }
        false
    }
}

impl Protocol for RaftNode {
    type Msg = RaftMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, RaftMsg>) {
        self.arm_election_timer(ctx);
        if let Some(at) = self.crash_at {
            ctx.set_timer(at, T_CRASH << 56);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, RaftMsg>, from: NodeId, msg: RaftMsg) {
        if self.check_crash(ctx.now()) {
            return;
        }
        match msg {
            RaftMsg::RequestVote {
                term,
                last_log_index,
                last_log_term,
            } => {
                if term > self.term {
                    self.become_follower(ctx, term);
                }
                let up_to_date = (last_log_term, last_log_index)
                    >= (self.last_log_term(), self.last_log_index());
                let grant = term == self.term
                    && up_to_date
                    && (self.voted_for.is_none() || self.voted_for == Some(from));
                if grant {
                    self.voted_for = Some(from);
                    self.arm_election_timer(ctx);
                }
                ctx.send(
                    from,
                    RaftMsg::Vote {
                        term: self.term,
                        granted: grant,
                    },
                );
            }
            RaftMsg::Vote { term, granted } => {
                if term > self.term {
                    self.become_follower(ctx, term);
                    return;
                }
                if self.role == Role::Candidate && term == self.term && granted {
                    self.votes += 1;
                    if self.votes >= self.majority() {
                        self.become_leader(ctx);
                    }
                }
            }
            RaftMsg::AppendEntries {
                term,
                prev_index,
                prev_term,
                entries,
                leader_commit,
            } => {
                if term < self.term {
                    ctx.send(
                        from,
                        RaftMsg::AppendResp {
                            term: self.term,
                            success: false,
                            match_index: 0,
                        },
                    );
                    return;
                }
                if term > self.term || self.role != Role::Follower {
                    self.become_follower(ctx, term);
                } else {
                    self.arm_election_timer(ctx);
                }
                // Log matching check.
                let ok = (prev_index as usize) < self.log.len()
                    && self.log[prev_index as usize].0 == prev_term;
                if !ok {
                    ctx.send(
                        from,
                        RaftMsg::AppendResp {
                            term: self.term,
                            success: false,
                            match_index: 0,
                        },
                    );
                    return;
                }
                // Truncate conflicts and append.
                self.log.truncate(prev_index as usize + 1);
                self.log.extend(entries);
                let new_commit = leader_commit.min(self.last_log_index());
                if new_commit > self.commit_index {
                    for i in self.commit_index + 1..=new_commit {
                        self.commit_times.entry(i).or_insert(ctx.now());
                    }
                    self.commit_index = new_commit;
                }
                ctx.send(
                    from,
                    RaftMsg::AppendResp {
                        term: self.term,
                        success: true,
                        match_index: self.last_log_index(),
                    },
                );
            }
            RaftMsg::AppendResp {
                term,
                success,
                match_index,
            } => {
                if term > self.term {
                    self.become_follower(ctx, term);
                    return;
                }
                if self.role != Role::Leader || term != self.term {
                    return;
                }
                if success {
                    self.match_index[from] = self.match_index[from].max(match_index);
                    self.next_index[from] = self.match_index[from] + 1;
                    self.advance_commit(ctx);
                } else {
                    // Back off and retry on the next heartbeat.
                    self.next_index[from] = self.next_index[from].saturating_sub(1).max(1);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, RaftMsg>, token: u64) {
        let kind = token >> 56;
        if kind == T_CRASH {
            self.crashed = true;
            return;
        }
        if self.check_crash(ctx.now()) {
            return;
        }
        match kind {
            T_ELECT => {
                let epoch = token & 0x00FF_FFFF_FFFF_FFFF;
                if epoch != self.election_epoch || self.role == Role::Leader {
                    return;
                }
                // Workload finished: no reason to elect anyone; let the
                // simulation drain.
                if self.total_requests > 0 && self.commit_index >= self.total_requests {
                    return;
                }
                self.become_candidate(ctx);
            }
            T_HEARTBEAT => {
                if self.role != Role::Leader {
                    return;
                }
                self.heartbeat(ctx);
                // Keep beating until the workload is fully committed.
                if self.commit_index < self.total_requests {
                    ctx.set_timer(self.heartbeat_us, T_HEARTBEAT << 56);
                } else {
                    // One final broadcast so followers learn the commit index.
                    self.heartbeat(ctx);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockprov_simnet::{SimConfig, Simulation};

    fn cluster(n: usize, reqs: u64) -> Simulation<RaftNode> {
        let nodes = (0..n).map(|i| RaftNode::new(i, n, reqs)).collect();
        Simulation::new(nodes, SimConfig::lan(17))
    }

    #[test]
    fn elects_exactly_one_leader_per_term() {
        let mut sim = cluster(5, 0);
        // Event budget, not virtual time: an idle cluster keeps heartbeat
        // timers alive forever, so the budget is always consumed in full.
        // An election needs a few hundred events; 10k is ample.
        sim.run_to_quiescence(10_000);
        let leaders: Vec<_> = sim.nodes().filter(|n| n.role() == Role::Leader).collect();
        assert_eq!(leaders.len(), 1, "exactly one leader");
    }

    #[test]
    fn replicates_and_commits_all_entries() {
        let mut sim = cluster(5, 40);
        sim.run_to_quiescence(2_000_000);
        let leader = sim
            .nodes()
            .find(|n| n.role() == Role::Leader)
            .expect("leader");
        assert_eq!(leader.committed(), 40);
        // Followers converge to the same commit index.
        for node in sim.nodes() {
            assert_eq!(node.committed(), 40, "follower lagged");
        }
    }

    #[test]
    fn leader_crash_triggers_reelection_and_progress() {
        // Crash whichever node is leader early by crashing node 0..n-1 at a
        // fixed time; only the actual leader's crash matters, others keep
        // following. Simpler: crash every node's timer? Instead: crash the
        // node that wins first (deterministic seed makes it stable). Run
        // once to find it, then rerun with the crash installed.
        let mut probe = cluster(5, 0);
        probe.run_to_quiescence(100_000);
        let first_leader = (0..5)
            .find(|&i| probe.node(i).role() == Role::Leader)
            .unwrap();

        let nodes: Vec<RaftNode> = (0..5)
            .map(|i| {
                let n = RaftNode::new(i, 5, 60);
                if i == first_leader {
                    n.crash_at(800_000)
                } else {
                    n
                }
            })
            .collect();
        let mut sim = Simulation::new(nodes, SimConfig::lan(17));
        sim.run_to_quiescence(30_000_000);
        // A new leader exists and the cluster committed everything.
        let survivors: Vec<_> = (0..5)
            .filter(|&i| i != first_leader)
            .map(|i| sim.node(i))
            .collect();
        let new_leader = survivors.iter().find(|n| n.role() == Role::Leader);
        assert!(new_leader.is_some(), "re-election happened");
        assert!(
            survivors.iter().all(|n| n.committed() == 60),
            "progress resumed after crash: {:?}",
            survivors.iter().map(|n| n.committed()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn commits_monotonic_and_terms_advance_on_failure() {
        let mut sim = cluster(3, 10);
        sim.run_to_quiescence(2_000_000);
        let leader = sim
            .nodes()
            .find(|n| n.role() == Role::Leader)
            .expect("leader");
        let times: Vec<_> = leader.commit_times.values().copied().collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted, "commit times monotone in index");
    }

    #[test]
    fn single_node_cluster_self_commits() {
        let mut sim = cluster(1, 5);
        sim.run_to_quiescence(1_000_000);
        assert_eq!(sim.node(0).committed(), 5);
        assert_eq!(sim.node(0).role(), Role::Leader);
    }
}
