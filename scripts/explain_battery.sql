ANALYZE flows
EXPLAIN ANALYZE SELECT COUNT(*) FROM flows WHERE data_loss > 0 AND flow_rate >= 1000
EXPLAIN ANALYZE SELECT COUNT(*) FROM flows WHERE NOT (data_loss = 0 OR retransmissions = 0)
EXPLAIN ANALYZE SELECT COUNT(*) FROM flows WHERE data_count BETWEEN 1000 AND 100000
EXPLAIN ANALYZE SELECT COUNT(*) FROM flows WHERE data_loss >= retransmissions AND data_loss > 0
EXPLAIN ANALYZE SELECT MEDIAN(data_count) FROM flows
EXPLAIN ANALYZE SELECT KTH_LARGEST(data_count, 100) FROM flows WHERE data_loss > 0
EXPLAIN ANALYZE SELECT MAX(flow_rate) FROM flows WHERE data_count BETWEEN 1000 AND 100000
EXPLAIN ANALYZE SELECT MIN(data_count) FROM flows WHERE flow_rate < 500
EXPLAIN ANALYZE SELECT AVG(data_count) FROM flows WHERE data_loss > 0 AND flow_rate >= 1000 AND retransmissions > 0
EXPLAIN ANALYZE SELECT COUNT(data_count) FROM flows GROUP BY retransmissions
EXPLAIN ANALYZE SELECT * FROM flows ORDER BY data_count DESC LIMIT 5
EXPLAIN ANALYZE SELECT * FROM flows WHERE retransmissions > 20 LIMIT 5
EXPLAIN PROFILE SELECT COUNT(*) FROM flows WHERE data_loss > 0 AND flow_rate >= 1000
EXPLAIN PROFILE SELECT COUNT(*) FROM flows WHERE NOT (data_loss = 0 OR retransmissions = 0)
EXPLAIN ANALYZE SELECT SUM(data_count) FROM flows WHERE flow_rate >= 1000
EXPLAIN ANALYZE SELECT AVG(data_count) FROM flows WHERE retransmissions > 0
