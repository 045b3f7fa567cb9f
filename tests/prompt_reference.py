"""Reference forms of the prediction prompt's builder, reader and mock reply, and of the
scoring prompt's reader, for equality tests.

``ReferenceBundle`` is the prompt as structured fields - ``HistoryRow`` and
``PeerInfo`` rows - rendered on every read of ``text``: the form prompts had
before the package rendered each target block and peer entry once and
memoized it.  ``reference_build_prompt`` fills it from a scan of the train
rows of the target and of every peer for each prompt.  A window of 0 shows no
history rows (the slice ``rows[-0:]`` would show them all), and it reads
every IRT field it renders from the model directly, the cold-start flag from
``m.cold_start_questions``.
``parse_prompt`` recovers every field of a rendered prediction prompt, as
the renderers' full inverse.  ``reference_mock_reply`` answers a prompt from
it; the mock backend reads only the lines it uses, and fails on a prompt not
laid out as rendered.

``reference_parse_scoring_prompt`` is the scoring mock's reader as it was
before it read path lines by their node kind: every line numbered
``"  <digits>. "`` is a path line, split at each ``" | "``.  It skips lines it
does not recognise, and cannot read an id that holds ``" | "``.
"""

from dataclasses import dataclass
from typing import Sequence

from hisekt.dataset import Dataset
from hisekt.irt import IrtModel
from hisekt.mrhin import Node
from hisekt.predict import (DEFAULT_WINDOW, MASK_IRT, MASK_SIMU, PREDICTION_PROMPT_HEADER, TASK_BLOCK, _parse_scalar,
                            mock_reply)

from support import decode_rows


@dataclass(frozen=True)
class HistoryRow:
    question_id: str
    kcs: tuple[str, ...]
    correct: bool
    timestamp: int
    difficulty: float | None
    discrimination: float | None
    difficulty_level: str | None


@dataclass(frozen=True)
class PeerInfo:
    student_id: str
    theta: float | None
    ability_level: str | None
    target_kc_accuracy: float | None
    overall_accuracy: float
    history: tuple[tuple[str, bool, int], ...]  # (question, correct, timestamp) on the target KC


@dataclass(frozen=True)
class ReferenceBundle:
    """Structured prompt content; rendering is a pure function of these fields."""

    target_student: str
    theta: float | None
    ability_level: str | None
    history: tuple[HistoryRow, ...]
    question_id: str
    question_kcs: tuple[str, ...]
    target_kc: str
    student_kc_accuracy: float | None
    difficulty: float | None
    discrimination: float | None
    difficulty_level: str | None
    cold_start: bool
    peers: tuple[PeerInfo, ...]
    ablation_mask: frozenset[str]

    @property
    def target_block(self) -> str:
        lines = ["=== TARGET STUDENT ===", f"student_id: {self.target_student}"]
        if MASK_IRT not in self.ablation_mask:
            lines.append(f"ability: {self.theta!r}")
            lines.append(f"ability_level: {self.ability_level}")
        lines.append(f"recent_interactions: {len(self.history)}")
        for row in self.history:
            entry = (
                f"  - question: {row.question_id} | kcs: {';'.join(row.kcs)}"
                f" | correct: {int(row.correct)} | timestamp: {row.timestamp}"
            )
            if MASK_IRT not in self.ablation_mask:
                entry += (
                    f" | difficulty: {row.difficulty!r} | discrimination: {row.discrimination!r}"
                    f" | difficulty_level: {row.difficulty_level}"
                )
            lines.append(entry)
        return "\n".join(lines)

    @property
    def question_block(self) -> str:
        lines = [
            "=== TARGET QUESTION ===",
            f"question_id: {self.question_id}",
            f"kcs: {';'.join(self.question_kcs)}",
            f"target_kc: {self.target_kc}",
            f"student_accuracy_on_target_kc: "
            f"{'none' if self.student_kc_accuracy is None else repr(self.student_kc_accuracy)}",
        ]
        if MASK_IRT not in self.ablation_mask:
            lines.append(f"difficulty: {self.difficulty!r}")
            lines.append(f"discrimination: {self.discrimination!r}")
            lines.append(f"difficulty_level: {self.difficulty_level}")
            if self.cold_start:
                lines.append("cold_start: true")
        return "\n".join(lines)

    @property
    def peers_block(self) -> str | None:
        if MASK_SIMU in self.ablation_mask:
            return None
        lines = ["=== SIMILAR STUDENTS ===", f"peer_count: {len(self.peers)}"]
        for peer in self.peers:
            lines.append(f"peer: {peer.student_id}")
            if MASK_IRT not in self.ablation_mask:
                lines.append(f"  ability: {peer.theta!r}")
                lines.append(f"  ability_level: {peer.ability_level}")
            lines.append(
                f"  target_kc_accuracy: "
                f"{'none' if peer.target_kc_accuracy is None else repr(peer.target_kc_accuracy)}"
            )
            lines.append(f"  overall_accuracy: {peer.overall_accuracy!r}")
            lines.append(f"  target_kc_history: {len(peer.history)}")
            for qid, correct, ts in peer.history:
                lines.append(f"    - question: {qid} | correct: {int(correct)} | timestamp: {ts}")
        return "\n".join(lines)

    @property
    def text(self) -> str:
        blocks = [PREDICTION_PROMPT_HEADER, self.target_block, self.question_block]
        peers = self.peers_block
        if peers is not None:
            blocks.append(peers)
        blocks.append(TASK_BLOCK)
        return "\n".join(blocks)


def _kc_accuracy(rows: Sequence, kc: str) -> float | None:
    hits = [i for i in rows if kc in i.kc_ids]
    if not hits:
        return None
    return sum(1 for i in hits if i.correct) / len(hits)


def reference_build_prompt(
    u: str,
    q: str,
    peers: Sequence[str],
    m: IrtModel,
    d: Dataset,
    mask: frozenset[str] | set[str] = frozenset(),
    window: int = DEFAULT_WINDOW,
) -> ReferenceBundle:
    """The structured prompt of one target, from a scan of the train rows (``window`` >= 0)."""
    mask = frozenset(mask)
    by_student = {student: decode_rows(d, run) for student, run in d.by_student("train").items()}
    question_kcs = d.question_kcs()
    target_kc = min(question_kcs[q])

    own_rows = by_student.get(u, ())
    history_rows = []
    for i in own_rows[-window:] if window else ():
        qid = i.question_id
        history_rows.append(
            HistoryRow(
                question_id=qid,
                kcs=tuple(sorted(i.kc_ids)),
                correct=i.correct,
                timestamp=i.timestamp,
                difficulty=m.diff[qid],
                discrimination=m.disc[qid],
                difficulty_level=m.difficulty_level[qid].label,
            )
        )

    peer_infos = []
    for peer_id in peers:
        rows = by_student.get(peer_id, ())
        kc_rows = [i for i in rows if target_kc in i.kc_ids]
        peer_infos.append(
            PeerInfo(
                student_id=peer_id,
                theta=m.theta[peer_id],
                ability_level=m.ability_level[peer_id].label,
                target_kc_accuracy=_kc_accuracy(rows, target_kc),
                overall_accuracy=(sum(1 for i in rows if i.correct) / len(rows) if rows else 0.5),
                history=tuple((i.question_id, i.correct, i.timestamp) for i in kc_rows),
            )
        )

    return ReferenceBundle(
        target_student=u,
        theta=m.theta[u],
        ability_level=m.ability_level[u].label,
        history=tuple(history_rows),
        question_id=q,
        question_kcs=tuple(sorted(question_kcs[q])),
        target_kc=target_kc,
        student_kc_accuracy=_kc_accuracy(own_rows, target_kc),
        difficulty=m.diff[q],
        discrimination=m.disc[q],
        difficulty_level=m.difficulty_level[q].label,
        cold_start=q in m.cold_start_questions,
        peers=tuple(peer_infos),
        ablation_mask=mask,
    )


def parse_prompt(text: str) -> dict:
    """Recover the field values of a rendered prompt (inverse of the renderers)."""
    fields: dict = {
        "history": [],
        "peers": None,
        "has_irt": False,
    }
    current_peer: dict | None = None
    section = ""
    for line in text.splitlines():
        if line.startswith("=== "):
            section = line.strip("= ").strip()
            if section == "SIMILAR STUDENTS":
                fields["peers"] = []
            continue
        if section == "TARGET STUDENT":
            if line.startswith("student_id: "):
                fields["target_student"] = line.split(": ", 1)[1]
            elif line.startswith("ability: "):
                fields["theta"] = float(line.split(": ", 1)[1])
                fields["has_irt"] = True
            elif line.startswith("ability_level: "):
                fields["ability_level"] = line.split(": ", 1)[1]
            elif line.startswith("  - question: "):
                fields["history"].append(_parse_history_row(line, fields["has_irt"]))
        elif section == "TARGET QUESTION":
            if line.startswith("question_id: "):
                fields["question_id"] = line.split(": ", 1)[1]
            elif line.startswith("kcs: "):
                fields["question_kcs"] = tuple(line.split(": ", 1)[1].split(";"))
            elif line.startswith("target_kc: "):
                fields["target_kc"] = line.split(": ", 1)[1]
            elif line.startswith("student_accuracy_on_target_kc: "):
                fields["student_kc_accuracy"] = _parse_scalar(line.split(": ", 1)[1])
            elif line.startswith("difficulty: "):
                fields["difficulty"] = float(line.split(": ", 1)[1])
            elif line.startswith("discrimination: "):
                fields["discrimination"] = float(line.split(": ", 1)[1])
            elif line.startswith("difficulty_level: "):
                fields["difficulty_level"] = line.split(": ", 1)[1]
            elif line == "cold_start: true":
                fields["cold_start"] = True
        elif section == "SIMILAR STUDENTS":
            if line.startswith("peer: "):
                current_peer = {"student_id": line.split(": ", 1)[1], "history": []}
                fields["peers"].append(current_peer)
            elif current_peer is not None:
                stripped = line.strip()
                if stripped.startswith("ability: "):
                    current_peer["theta"] = float(stripped.split(": ", 1)[1])
                elif stripped.startswith("ability_level: "):
                    current_peer["ability_level"] = stripped.split(": ", 1)[1]
                elif stripped.startswith("target_kc_accuracy: "):
                    current_peer["target_kc_accuracy"] = _parse_scalar(stripped.split(": ", 1)[1])
                elif stripped.startswith("overall_accuracy: "):
                    current_peer["overall_accuracy"] = float(stripped.split(": ", 1)[1])
                elif line.startswith("    - question: "):
                    body, _, timestamp = line[len("    - question: "):].rpartition(" | timestamp: ")
                    question, _, correct = body.rpartition(" | correct: ")
                    current_peer["history"].append((question, correct == "1", int(timestamp)))
    return fields


def _parse_history_row(line: str, has_irt: bool) -> dict:
    """Read a target history row from the right: only its first two values (ids) may hold `` | ``."""
    body = line[len("  - question: "):]
    if has_irt:
        body, _, level = body.rpartition(" | difficulty_level: ")
        body, _, discrimination = body.rpartition(" | discrimination: ")
        body, _, difficulty = body.rpartition(" | difficulty: ")
    body, _, timestamp = body.rpartition(" | timestamp: ")
    body, _, correct = body.rpartition(" | correct: ")
    question, _, kcs = body.rpartition(" | kcs: ")
    row = {
        "question_id": question,
        "kcs": tuple(kcs.split(";")),
        "correct": correct == "1",
        "timestamp": int(timestamp),
    }
    if has_irt:
        row["difficulty"] = float(difficulty)
        row["discrimination"] = float(discrimination)
        row["difficulty_level"] = level
    return row


def reference_mock_reply(text: str) -> str:
    """The mock's reply computed from every field of the prompt."""
    return mock_reply(parse_prompt(text))


def _numbered_line_body(line: str) -> str | None:
    """The text after ``"  <digits>. "`` when ``line`` starts so, else None."""
    if not line.startswith("  "):
        return None
    dot = line.find(". ", 2)
    return line[dot + 2:] if dot > 2 and line[2:dot].isdecimal() else None


def reference_parse_scoring_prompt(text: str) -> tuple[list[Node], str, dict[str, int], dict[str, frozenset[str]]]:
    """The path, target KC, and each question's hop count and KC set written in a scoring prompt."""
    target_kc = ""
    nodes: list[Node] = []
    hop_of: dict[str, int] = {}
    kc_of: dict[str, frozenset[str]] = {}
    for line in text.splitlines():
        if line.startswith("target_kc: "):
            target_kc = line.split(": ", 1)[1]
        elif (body := _numbered_line_body(line)) is not None:
            head, *notes = body.split(" | ")
            kind, node_id = head.split(":", 1)
            nodes.append((kind, node_id))
            if kind == "Q":
                fields = dict(note.split(": ", 1) for note in notes)
                hop_of[node_id] = int(fields["hops_from_target"])
                kc_of[node_id] = frozenset(k for k in fields["kcs"].split(";") if k)
    return nodes, target_kc, hop_of, kc_of
